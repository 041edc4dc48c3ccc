package engine

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"syncsim/internal/chaos"
	"syncsim/internal/flight"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
)

// leakCheck snapshots the goroutine count and returns an assertion that
// waits (briefly) for the count to fall back, failing with a full stack
// dump if goroutines outlive the test body. Register it FIRST via
// t.Cleanup so it runs after every other deferred teardown.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s",
			before, runtime.NumGoroutine(), buf[:n])
	})
}

// panicProgram panics while generating its trace.
type panicProgram struct{ fakeProgram }

func (p *panicProgram) Generate(workload.Params) (*trace.Set, error) {
	panic("generator exploded")
}

// TestPanicIsolationGenerate: a panic inside trace generation becomes an
// ordinary *PanicError carrying the job and stack; the pool survives (no
// leaked workers) and the same engine still executes healthy tasks.
func TestPanicIsolationGenerate(t *testing.T) {
	leakCheck(t)
	prog := &panicProgram{fakeProgram{name: "boom", ncpu: 2, pairs: 4}}
	eng := New(Config{Workers: 2})
	_, _, err := eng.Run(context.Background(), simTasks(prog, "a", "b"))
	var pe *flight.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "generator exploded" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if !strings.Contains(pe.Job, "boom") {
		t.Errorf("job = %q, want it to name the workload", pe.Job)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "Generate") {
		t.Errorf("stack missing or unhelpful:\n%s", pe.Stack)
	}

	// The engine is still serviceable after containing the panic.
	good := &fakeProgram{name: "fine", ncpu: 2, pairs: 4}
	results, _, err := eng.Run(context.Background(), simTasks(good, "a"))
	if err != nil {
		t.Fatalf("engine unusable after contained panic: %v", err)
	}
	if results[0].Result == nil || results[0].Result.RunTime == 0 {
		t.Fatal("no result from post-panic run")
	}
}

// TestChaosWorkerPanic: the chaos plane's WorkerPanic point fires inside a
// worker; the recovery path must convert it, not crash the test binary.
func TestChaosWorkerPanic(t *testing.T) {
	leakCheck(t)
	plane := chaos.New(1)
	plane.Set(chaos.WorkerPanic, 1)
	eng := New(Config{Workers: 2, Chaos: plane})
	prog := &fakeProgram{name: "chaotic", ncpu: 2, pairs: 4}
	_, _, err := eng.Run(context.Background(), simTasks(prog, "a"))
	var pe *flight.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if plane.Fired(chaos.WorkerPanic) == 0 {
		t.Error("plane reports no WorkerPanic fired")
	}
}

// TestChaosDecodeFault: the DecodeFault point replaces a healthy trace
// fetch with chaos.ErrDecode — an ordinary error, not a panic.
func TestChaosDecodeFault(t *testing.T) {
	leakCheck(t)
	plane := chaos.New(1)
	plane.Set(chaos.DecodeFault, 1)
	eng := New(Config{Workers: 1, Chaos: plane})
	prog := &fakeProgram{name: "decodey", ncpu: 2, pairs: 4}
	_, _, err := eng.Run(context.Background(), simTasks(prog, "a"))
	if !errors.Is(err, chaos.ErrDecode) {
		t.Fatalf("err = %v, want chaos.ErrDecode", err)
	}
}

// TestPanicErrorMemoised: a generation panic is deterministic, so the
// cache memoises the PanicError like any generation failure — a second
// lookup gets the same error without re-generating.
func TestPanicErrorMemoised(t *testing.T) {
	leakCheck(t)
	prog := &panicProgram{fakeProgram{name: "boom2", ncpu: 2, pairs: 4}}
	cache := NewTraceCache()
	eng := New(Config{Workers: 1, Cache: cache})
	for i := 0; i < 2; i++ {
		_, _, err := eng.Run(context.Background(), simTasks(prog, "a"))
		var pe *flight.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("run %d: err = %v (%T), want *PanicError", i, err, err)
		}
	}
	if cache.Len() != 1 {
		t.Errorf("cache len = %d, want the panicking entry memoised once", cache.Len())
	}
}
