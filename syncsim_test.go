package syncsim

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestFacadeBenchmarks(t *testing.T) {
	benches := Benchmarks()
	if len(benches) != 6 {
		t.Fatalf("Benchmarks() = %d entries, want 6", len(benches))
	}
	if benches[0].Program.Name() != "Grav" {
		t.Errorf("first benchmark %q, want Grav (table order)", benches[0].Program.Name())
	}
	if _, err := BenchmarkByName("Qsort"); err != nil {
		t.Errorf("BenchmarkByName(Qsort): %v", err)
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Error("BenchmarkByName accepted junk")
	}
}

func TestFacadeCustomTraceSimulation(t *testing.T) {
	cpus := [][]Event{
		{Lock(0, 0xF0000000), Exec(50), Write(0x80000000), Unlock(0, 0xF0000000), Exec(10)},
		{Lock(0, 0xF0000000), Exec(50), Write(0x80000000), Unlock(0, 0xF0000000), Exec(10)},
	}
	set := BufferTraceSet("api", cpus)
	ideal := AnalyzeIdeal(set)
	if ideal.LockPairs != 1 {
		t.Errorf("LockPairs = %v, want 1 per cpu", ideal.LockPairs)
	}
	if ideal.SharedRefs != 1 {
		t.Errorf("SharedRefs = %v, want 1 per cpu (classifier wired through)", ideal.SharedRefs)
	}

	set = BufferTraceSet("api", cpus)
	cfg := DefaultMachineConfig()
	res, err := Simulate(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Locks.Acquisitions != 2 || res.Locks.Transfers != 1 {
		t.Errorf("lock stats: %+v", res.Locks)
	}
}

func TestFacadeConstantsDistinct(t *testing.T) {
	if QueueLocks == TestTestSet {
		t.Error("lock algorithms not distinct")
	}
	if SeqConsistent == WeakOrdering {
		t.Error("consistency models not distinct")
	}
	if ModelQueue == ModelTTS || ModelTTS == ModelWO {
		t.Error("models not distinct")
	}
}

func TestFacadeRunSuiteAndTables(t *testing.T) {
	outs, err := RunSuite(Options{
		Scale:  0.02,
		Seed:   1,
		Only:   []string{"FullConn"},
		Models: []Model{ModelQueue, ModelTTS, ModelWO},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	all := AllTables(outs)
	for _, want := range []string{"Table 1", "Table 8", "FullConn"} {
		if !strings.Contains(all, want) {
			t.Errorf("AllTables missing %q", want)
		}
	}
	if dec, ok := outs[0].Decomposition(); !ok {
		t.Error("decomposition missing")
	} else if dec.QueueRunTime == 0 {
		t.Error("decomposition empty")
	}
}

func TestFacadeRunSuiteCtxFunctionalOptions(t *testing.T) {
	var rep SuiteReport
	outs, err := RunSuiteCtx(context.Background(),
		WithScale(0.02),
		WithSeed(1),
		WithOnly("Qsort"),
		WithModels(ModelQueue),
		WithWorkers(2),
		WithReport(func(r SuiteReport) { rep = r }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Name != "Qsort" {
		t.Fatalf("outcomes = %d", len(outs))
	}
	if outs[0].Report == nil || outs[0].Report.Runs != 1 {
		t.Errorf("outcome report = %+v", outs[0].Report)
	}
	if rep.Tasks != 1 || rep.Simulate == 0 {
		t.Errorf("suite report = %+v", rep)
	}
}

func TestFacadeRunBenchmarkCtx(t *testing.T) {
	b, err := BenchmarkByName("Topopt")
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunBenchmarkCtx(context.Background(), b,
		WithScale(0.01), WithModels(ModelQueue))
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[ModelQueue].RunTime == 0 {
		t.Error("zero run-time")
	}
	if out.Report != nil {
		t.Error("report attached without WithMetrics")
	}
}

func TestFacadeSelectionAndSentinel(t *testing.T) {
	if _, err := NewSelection("Grav", "Nope"); !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("NewSelection err = %v, want ErrUnknownBenchmark", err)
	}
	sel, err := NewSelection("Grav")
	if err != nil {
		t.Fatal(err)
	}
	if sel.All() || !sel.Contains("Grav") || sel.Contains("Pdsa") {
		t.Error("selection semantics wrong")
	}
	if _, err := RunSuiteCtx(context.Background(), WithOnly("Bogus")); !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("RunSuiteCtx err = %v, want ErrUnknownBenchmark", err)
	}
}

func TestFacadeSimulateCtx(t *testing.T) {
	cpus := [][]Event{
		{Lock(0, 0xF0000000), Exec(50), Unlock(0, 0xF0000000)},
		{Lock(0, 0xF0000000), Exec(50), Unlock(0, 0xF0000000)},
	}
	set := BufferTraceSet("ctx", cpus)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateCtx(ctx, set, DefaultMachineConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled SimulateCtx err = %v", err)
	}
	set = BufferTraceSet("ctx", cpus)
	res, err := SimulateCtx(context.Background(), set, DefaultMachineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Locks.Acquisitions != 2 {
		t.Errorf("acquisitions = %d", res.Locks.Acquisitions)
	}
}

// Simulate returns an error, not a panic, on a trace whose processor
// releases a lock it never took.
func TestFacadeSimulateLockMisuse(t *testing.T) {
	set := BufferTraceSet("unlock", [][]Event{{Unlock(1, 0x40)}})
	if _, err := Simulate(set, DefaultMachineConfig()); !errors.Is(err, ErrLockMisuse) {
		t.Errorf("Simulate err = %v, want ErrLockMisuse", err)
	}
}

func TestFacadeSharedAddr(t *testing.T) {
	if !SharedAddr(0x80000000) || SharedAddr(0x40000000) {
		t.Error("SharedAddr classifier wrong")
	}
}
