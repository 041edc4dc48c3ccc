package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"syncsim/internal/machine"
	"syncsim/internal/metrics"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
)

// fakeProgram is a synthetic workload: per CPU, `pairs` critical sections
// on one shared lock with a shared-heap write inside. It is deterministic
// in its params and cheap to generate, so tests control cost precisely.
type fakeProgram struct {
	name     string
	ncpu     int
	pairs    int
	genCalls *atomic.Int32
	genErr   error
	genDelay time.Duration
}

func (p *fakeProgram) Name() string     { return p.name }
func (p *fakeProgram) DefaultNCPU() int { return p.ncpu }

func (p *fakeProgram) Generate(q workload.Params) (*trace.Set, error) {
	if p.genCalls != nil {
		p.genCalls.Add(1)
	}
	if p.genDelay > 0 {
		time.Sleep(p.genDelay)
	}
	if p.genErr != nil {
		return nil, p.genErr
	}
	q = q.WithDefaults(p.ncpu)
	pairs := int(float64(p.pairs) * q.Scale)
	if pairs < 1 {
		pairs = 1
	}
	cpus := make([][]trace.Event, q.NCPU)
	for i := range cpus {
		evs := make([]trace.Event, 0, 5*pairs)
		for j := 0; j < pairs; j++ {
			evs = append(evs,
				trace.Lock(0, 0xF0000000),
				trace.Exec(20),
				trace.Write(0x80000000+uint32(16*(j%8))),
				trace.Unlock(0, 0xF0000000),
				trace.Exec(10),
			)
		}
		cpus[i] = evs
	}
	return trace.BufferSet(p.name, cpus), nil
}

func simTasks(prog workload.Program, labels ...string) []Task {
	cfg := machine.DefaultConfig()
	tasks := make([]Task, len(labels))
	for i, l := range labels {
		c := cfg
		if i%2 == 1 {
			c.Memory.AccessTime = 3 + uint64(i) // distinct configs, same trace
		}
		tasks[i] = Task{Program: prog, Params: workload.Params{Scale: 1, Seed: 1},
			Label: l, Config: c}
	}
	return tasks
}

func TestKeyCanonicalisation(t *testing.T) {
	p := &fakeProgram{name: "Fake", ncpu: 4, pairs: 10}
	k1 := KeyFor(p, workload.Params{})
	k2 := KeyFor(p, workload.Params{NCPU: 4, Scale: 1, Seed: 0})
	if k1 != k2 {
		t.Errorf("default params key %+v != explicit key %+v", k1, k2)
	}
	k3 := KeyFor(p, workload.Params{NCPU: 8})
	if k1 == k3 {
		t.Error("different NCPU must yield different keys")
	}
}

func TestCacheHitMissAccounting(t *testing.T) {
	var calls atomic.Int32
	p := &fakeProgram{name: "Fake", ncpu: 2, pairs: 50, genCalls: &calls}
	eng := New(Config{Workers: 2})
	results, rep, err := eng.Run(context.Background(), simTasks(p, "a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("Generate called %d times, want exactly 1 (trace memoised)", got)
	}
	if rep.CacheMisses != 1 || rep.CacheHits != 2 {
		t.Errorf("cache accounting: %d misses / %d hits, want 1/2", rep.CacheMisses, rep.CacheHits)
	}
	if rate := rep.CacheHitRate(); rate < 2.0/3.0-1e-9 {
		t.Errorf("hit rate %.3f, want ≥ 2/3", rate)
	}
	if rep.Tasks != 3 || rep.Workers != 2 {
		t.Errorf("report shape: %d tasks / %d workers", rep.Tasks, rep.Workers)
	}
	hits := 0
	for _, r := range results {
		if r.Result == nil || r.Result.RunTime == 0 {
			t.Fatal("missing simulation result")
		}
		if r.Report.Runs != 1 {
			t.Errorf("per-task report runs = %d", r.Report.Runs)
		}
		hits += r.Report.CacheHits
	}
	if hits != 2 {
		t.Errorf("per-task cache hits sum = %d, want 2", hits)
	}
}

// The suite report's scheduler counters are the sums of its tasks' run
// reports, leases included.
func TestSuiteReportSumsSchedCounters(t *testing.T) {
	p := &fakeProgram{name: "Fake", ncpu: 4, pairs: 200}
	results, rep, err := New(Config{Workers: 2}).Run(context.Background(), simTasks(p, "a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	var sum metrics.RunReport
	for _, r := range results {
		sum.Add(r.Report)
	}
	got := [4]uint64{rep.SchedIters, rep.SchedSteps, rep.SchedLeasedSteps, rep.SchedRollbacks}
	want := [4]uint64{sum.SchedIters, sum.SchedSteps, sum.SchedLeasedSteps, sum.SchedRollbacks}
	if got != want {
		t.Errorf("suite iters/steps/leased/rollbacks = %v, tasks sum to %v", got, want)
	}
	if rep.SchedLeasedSteps == 0 {
		t.Error("no leased steps on a replayable trace")
	}
}

func TestDistinctParamsDistinctTraces(t *testing.T) {
	var calls atomic.Int32
	p := &fakeProgram{name: "Fake", ncpu: 2, pairs: 40, genCalls: &calls}
	cfg := machine.DefaultConfig()
	tasks := []Task{
		{Program: p, Params: workload.Params{Scale: 1, Seed: 1}, Label: "s1", Config: cfg},
		{Program: p, Params: workload.Params{Scale: 1, Seed: 2}, Label: "s2", Config: cfg},
		{Program: p, Params: workload.Params{Scale: 1, Seed: 1, NCPU: 4}, Label: "n4", Config: cfg},
	}
	eng := New(Config{})
	_, rep, err := eng.Run(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("Generate called %d times, want 3 (distinct keys)", got)
	}
	if rep.CacheHits != 0 || rep.CacheMisses != 3 {
		t.Errorf("cache accounting: %d/%d, want 0 hits / 3 misses", rep.CacheHits, rep.CacheMisses)
	}
}

func TestSingleFlightGeneration(t *testing.T) {
	var calls atomic.Int32
	p := &fakeProgram{name: "Fake", ncpu: 2, pairs: 20, genCalls: &calls,
		genDelay: 20 * time.Millisecond}
	eng := New(Config{Workers: 8})
	labels := make([]string, 8)
	for i := range labels {
		labels[i] = fmt.Sprintf("t%d", i)
	}
	_, _, err := eng.Run(context.Background(), simTasks(p, labels...))
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("concurrent identical tasks generated %d times, want 1 (single-flight)", got)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	p := &fakeProgram{name: "Fake", ncpu: 4, pairs: 200}
	baseline, _, err := New(Config{Workers: 1}).Run(context.Background(), simTasks(p, "a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, _, err := New(Config{Workers: workers}).Run(context.Background(), simTasks(p, "a", "b", "c", "d"))
		if err != nil {
			t.Fatal(err)
		}
		for i := range baseline {
			if got[i].Result.RunTime != baseline[i].Result.RunTime {
				t.Errorf("workers=%d task %d: run-time %d != sequential %d",
					workers, i, got[i].Result.RunTime, baseline[i].Result.RunTime)
			}
			if got[i].Result.Locks != baseline[i].Result.Locks {
				t.Errorf("workers=%d task %d: lock stats diverge", workers, i)
			}
			if got[i].Ideal != baseline[i].Ideal {
				t.Errorf("workers=%d task %d: ideal stats diverge", workers, i)
			}
		}
	}
}

func TestGenerationErrorPropagates(t *testing.T) {
	sentinel := errors.New("boom")
	p := &fakeProgram{name: "Fake", ncpu: 2, pairs: 10, genErr: sentinel}
	_, _, err := New(Config{Workers: 2}).Run(context.Background(), simTasks(p, "a", "b"))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestIdealOnlyTask(t *testing.T) {
	p := &fakeProgram{name: "Fake", ncpu: 2, pairs: 30}
	tasks := []Task{{Program: p, Params: workload.Params{Scale: 1}, Label: "ideal",
		IdealOnly: true}}
	results, rep, err := New(Config{}).Run(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Result != nil {
		t.Error("ideal-only task produced a simulation result")
	}
	if results[0].Ideal.LockPairs == 0 {
		t.Error("ideal stats missing")
	}
	if rep.SimCycles != 0 {
		t.Errorf("ideal-only run simulated %d cycles", rep.SimCycles)
	}
}

func TestCancellationMidSuite(t *testing.T) {
	// A workload whose simulation runs for many seconds: cancellation must
	// interrupt the machine simulator mid-run, return promptly, and leak no
	// goroutines. The cancel fires once a worker reports it has entered the
	// simulate phase, so the test exercises the simulator's cancellation
	// polling rather than the (phase-boundary) checks in trace generation.
	p := &fakeProgram{name: "Fake", ncpu: 8, pairs: 20_000}
	before := runtime.NumGoroutine()

	simStarted := make(chan struct{})
	var simOnce sync.Once
	eng := New(Config{Workers: 4, Progress: func(format string, args ...any) {
		if strings.Contains(format, "simulating") {
			simOnce.Do(func() { close(simStarted) })
		}
	}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := eng.Run(ctx, simTasks(p, "a", "b", "c", "d", "e", "f"))
		done <- err
	}()

	select {
	case <-simStarted:
	case err := <-done:
		t.Fatalf("engine returned before simulation started: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("simulation never started")
	}
	cancelled := time.Now()
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("engine did not return within 5s of cancellation")
	}
	if elapsed := time.Since(cancelled); elapsed > 3*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
	waitForGoroutines(t, before)
}

func TestPreCancelledContext(t *testing.T) {
	p := &fakeProgram{name: "Fake", ncpu: 2, pairs: 10}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	_, _, err := New(Config{Workers: 2}).Run(ctx, simTasks(p, "a", "b"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitForGoroutines(t, before)
}

func TestProgressSerialised(t *testing.T) {
	// The progress callback appends to a plain slice; -race verifies the
	// engine serialises concurrent callers.
	var lines []string
	p := &fakeProgram{name: "Fake", ncpu: 2, pairs: 30}
	eng := New(Config{Workers: 4, Progress: func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}})
	_, _, err := eng.Run(context.Background(), simTasks(p, "a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	var generating, simulating int
	for _, l := range lines {
		switch {
		case strings.Contains(l, "generating"):
			generating++
		case strings.Contains(l, "simulating"):
			simulating++
		}
	}
	if generating != 1 {
		t.Errorf("generating lines = %d, want 1 (trace cached)", generating)
	}
	if simulating != 4 {
		t.Errorf("simulating lines = %d, want 4", simulating)
	}
}

func TestSharedCacheAcrossRuns(t *testing.T) {
	var calls atomic.Int32
	p := &fakeProgram{name: "Fake", ncpu: 2, pairs: 30, genCalls: &calls}
	cache := NewTraceCache()
	for i := 0; i < 3; i++ {
		eng := New(Config{Cache: cache})
		if _, _, err := eng.Run(context.Background(), simTasks(p, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("shared cache: Generate called %d times across runs, want 1", got)
	}
	if cache.Len() != 1 {
		t.Errorf("cache entries = %d, want 1", cache.Len())
	}
}

// waitForGoroutines polls until the goroutine count settles back to the
// pre-run level (a goleak-style check without the dependency).
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before run, %d after", before, runtime.NumGoroutine())
}
