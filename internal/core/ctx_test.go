package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"syncsim/internal/machine"
	"syncsim/internal/metrics"
	"syncsim/internal/workload/suite"
)

func TestNewOptionsFunctional(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.BufDepth = 2
	var progressed bool
	sel, err := suite.NewSelection("Qsort")
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptions(
		WithScale(0.25),
		WithSeed(7),
		WithModels(ModelQueue, ModelWO),
		WithOnly("Grav", "Pdsa"),
		WithMachine(cfg),
		WithProgress(func(string, ...any) { progressed = true }),
		WithWorkers(3),
	)
	if o.Scale != 0.25 || o.Seed != 7 || o.Workers != 3 {
		t.Errorf("options = %+v", o)
	}
	if len(o.Models) != 2 || o.Models[0] != ModelQueue || o.Models[1] != ModelWO {
		t.Errorf("models = %v", o.Models)
	}
	if o.Machine == nil || o.Machine.BufDepth != 2 {
		t.Error("WithMachine not applied")
	}
	if got := o.Select.Names(); !slices.Equal(got, []string{"Grav", "Pdsa"}) {
		t.Errorf("WithOnly selected %v", got)
	}
	o.Progress("x")
	if !progressed {
		t.Error("WithProgress not applied")
	}
	// The last selection wins, and a valid one replaces an invalid one.
	o = NewOptions(WithOnly("Nope"), WithSelection(sel))
	if got := o.Select.Names(); !slices.Equal(got, []string{"Qsort"}) || o.selectErr != nil {
		t.Errorf("WithSelection after WithOnly: select %v, err %v", got, o.selectErr)
	}
}

func TestRunBenchmarkCtxMetricsReport(t *testing.T) {
	b, err := suite.ByName("Qsort")
	if err != nil {
		t.Fatal(err)
	}
	var suiteRep metrics.SuiteReport
	out, err := RunBenchmarkCtx(context.Background(), b, NewOptions(
		WithScale(0.02),
		WithSeed(1),
		WithReport(func(r metrics.SuiteReport) { suiteRep = r }),
	))
	if err != nil {
		t.Fatal(err)
	}
	if out.Report == nil {
		t.Fatal("Outcome.Report missing despite WithReport")
	}
	if out.Report.Runs != 3 {
		t.Errorf("report runs = %d, want 3 (one per model)", out.Report.Runs)
	}
	if out.Report.CacheHits != 2 {
		t.Errorf("report cache hits = %d, want 2 (trace generated once, replayed thrice)", out.Report.CacheHits)
	}
	if out.Report.Generate == 0 || out.Report.Simulate == 0 {
		t.Errorf("report phases empty: %+v", out.Report)
	}
	if out.Report.SimCycles == 0 || out.Report.Throughput() == 0 {
		t.Errorf("report throughput empty: %+v", out.Report)
	}
	if suiteRep.Tasks != 3 || suiteRep.CacheMisses != 1 || suiteRep.CacheHits != 2 {
		t.Errorf("suite report = %+v", suiteRep)
	}
}

// TestRunSuiteCtxReportsSumToSuite: every Outcome carries its benchmark's
// report, whether or not a suite report was asked for, and the outcomes'
// reports add up to the suite report the engine delivers.
func TestRunSuiteCtxReportsSumToSuite(t *testing.T) {
	opts := []Option{WithScale(0.01), WithSeed(2), WithOnly("Pdsa", "Topopt"), WithModels(ModelQueue, ModelWO)}
	plain, err := RunSuiteCtx(context.Background(), NewOptions(opts...))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range plain {
		if o.Report == nil || o.Report.Runs != 2 {
			t.Errorf("%s: report %+v, want one run per model", o.Name, o.Report)
		}
	}

	var rep metrics.SuiteReport
	outs, err := RunSuiteCtx(context.Background(), NewOptions(append(opts,
		WithReport(func(r metrics.SuiteReport) { rep = r }))...))
	if err != nil {
		t.Fatal(err)
	}
	var got metrics.SuiteReport
	runs := 0
	for _, o := range outs {
		got.Add(*o.Report)
		runs += o.Report.Runs
	}
	// Add counts each outcome as one task, but each of its runs was one.
	got.Tasks = runs
	// Wall and Workers are the suite's own, not sums over tasks.
	rep.Wall, rep.Workers = 0, 0
	if rep.Tasks != 4 || got != rep {
		t.Errorf("outcome reports sum to %+v, suite report %+v (want 4 tasks)", got, rep)
	}
}

// TestRepeatedModelsRunOnce: a model listed twice is simulated once, so
// each benchmark gets one task and one run per distinct model, in
// first-seen order.
func TestRepeatedModelsRunOnce(t *testing.T) {
	o := NewOptions(WithModels(ModelWO, ModelQueue, ModelWO, ModelQueue))
	if got := o.models(); !slices.Equal(got, []Model{ModelWO, ModelQueue}) {
		t.Errorf("models() = %v, want [wo queue]", got)
	}

	b, err := suite.ByName("Qsort")
	if err != nil {
		t.Fatal(err)
	}
	var rep metrics.SuiteReport
	out, err := RunBenchmarkCtx(context.Background(), b, NewOptions(
		WithScale(0.01),
		WithModels(ModelQueue, ModelQueue),
		WithReport(func(r metrics.SuiteReport) { rep = r }),
	))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[ModelQueue] == nil {
		t.Errorf("results = %v, want queue alone", out.Results)
	}
	if out.Report.Runs != 1 || rep.Tasks != 1 {
		t.Errorf("outcome report runs = %d, suite tasks = %d; want 1 each", out.Report.Runs, rep.Tasks)
	}
}

func TestRunSuiteCtxUnknownSelection(t *testing.T) {
	_, err := RunSuiteCtx(context.Background(), NewOptions(WithOnly("Nope")))
	if !errors.Is(err, suite.ErrUnknownBenchmark) {
		t.Fatalf("err = %v, want wrapped suite.ErrUnknownBenchmark", err)
	}
}

func TestRunSuiteCtxCancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel once the engine reports a simulation underway, so the test
	// exercises mid-simulation interruption rather than racing generation.
	simStarted := make(chan struct{})
	var simOnce sync.Once
	opts := Options{Scale: 0.2, Seed: 1, Progress: func(format string, args ...any) {
		if strings.Contains(format, "simulating") {
			simOnce.Do(func() { close(simStarted) })
		}
	}}
	done := make(chan error, 1)
	go func() {
		_, err := RunSuiteCtx(ctx, opts)
		done <- err
	}()
	select {
	case <-simStarted:
	case err := <-done:
		t.Fatalf("RunSuiteCtx returned before simulating: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("no simulation started within 60s")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunSuiteCtx did not return within 10s of cancellation")
	}
	// goleak-style check: every engine worker must have exited.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

func TestWorkerCountDoesNotChangeOutcomes(t *testing.T) {
	run := func(workers int) []*Outcome {
		t.Helper()
		outs, err := RunSuiteCtx(context.Background(), NewOptions(
			WithScale(0.02), WithSeed(1), WithOnly("Qsort", "Topopt"), WithWorkers(workers),
		))
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	seq := run(1)
	par := run(4)
	for i := range seq {
		if seq[i].Name != par[i].Name {
			t.Fatalf("outcome order differs: %v vs %v", names(seq), names(par))
		}
		if seq[i].Ideal != par[i].Ideal {
			t.Errorf("%s: ideal stats differ across worker counts", seq[i].Name)
		}
		for _, m := range []Model{ModelQueue, ModelTTS, ModelWO} {
			if seq[i].Results[m].RunTime != par[i].Results[m].RunTime {
				t.Errorf("%s/%v: run-time differs across worker counts", seq[i].Name, m)
			}
		}
	}
}
