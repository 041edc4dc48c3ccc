package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"syncsim/internal/flight"
	"syncsim/internal/machine"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
)

// poisonedCursor is a rewindable trace cursor that panics after a fixed
// number of events — a poisoned trace discovered mid-speculation. The
// canonical cursor handed to the ideal analyser is disarmed (left < 0);
// only the per-task clones the engine simulates from are armed, so the
// panic fires inside the calendar's speculative advance, not during
// generation or analysis.
type poisonedCursor struct {
	inner *trace.Buffer
	left  int // events to yield before panicking; negative = disarmed
}

func (p *poisonedCursor) Next() (trace.Event, bool) {
	if p.left == 0 {
		panic("poisonedCursor: poisoned event")
	}
	if p.left > 0 {
		p.left--
	}
	return p.inner.Next()
}

func (p *poisonedCursor) Mark() trace.Mark  { return p.inner.Mark() }
func (p *poisonedCursor) Seek(m trace.Mark) { p.inner.Seek(m) }
func (p *poisonedCursor) Rewind()           { p.inner.Rewind() }

func (p *poisonedCursor) CloneSource() trace.Source {
	return &poisonedCursor{inner: trace.NewBuffer(p.inner.Events), left: 1}
}

// poisonedLeaseProgram generates a contended workload whose per-task trace
// clones panic on their second event. Every CPU is leasable at cycle 0, so
// the calendar's first sweep opens a lease on each, and the panic lands
// inside that inline advance.
type poisonedLeaseProgram struct{ ncpu int }

func (p *poisonedLeaseProgram) Name() string     { return "poisoned-lease" }
func (p *poisonedLeaseProgram) DefaultNCPU() int { return p.ncpu }

func (p *poisonedLeaseProgram) Generate(q workload.Params) (*trace.Set, error) {
	q = q.WithDefaults(p.ncpu)
	cpus := make([][]trace.Event, q.NCPU)
	for i := range cpus {
		private := 0x4000 + uint32(i)*0x100
		cpus[i] = []trace.Event{
			trace.Exec(uint32(1 + i%7)), // consumed by the cycle-0 advance
			trace.Read(0x1000),          // second Next: the poisoned one
			trace.Write(private),
			trace.Lock(0, 0x9000),
			trace.Write(0x1000),
			trace.Unlock(0, 0x9000),
			trace.Barrier(0),
		}
	}
	set := trace.BufferSet(p.Name(), cpus)
	for i, src := range set.Sources {
		set.Sources[i] = &poisonedCursor{inner: src.(*trace.Buffer), left: -1}
	}
	return set, nil
}

// TestLeasePanicIsolation: a panic inside the calendar's
// speculative advance crosses the engine's task pool and must still arrive
// as an ordinary *PanicError naming the job and carrying the advance's
// stack, with the pool torn down (leakCheck) and the engine serviceable for
// further runs.
func TestLeasePanicIsolation(t *testing.T) {
	leakCheck(t)

	prog := &poisonedLeaseProgram{ncpu: 8}
	eng := New(Config{Workers: 2})
	task := Task{Program: prog, Params: workload.Params{Scale: 1, Seed: 1},
		Label: "lease", Config: machine.DefaultConfig()}
	_, _, err := eng.Run(context.Background(), []Task{task})
	var pe *flight.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if msg := fmt.Sprint(pe.Value); !strings.Contains(msg, "poisoned") {
		t.Errorf("panic value %q is not the poisoned cursor's", msg)
	}
	if !strings.Contains(pe.Job, "poisoned-lease") {
		t.Errorf("job = %q, want it to name the workload", pe.Job)
	}
	if !strings.Contains(string(pe.Stack), "advanceLease") {
		t.Errorf("stack does not pass through the speculative advance:\n%s", pe.Stack)
	}

	// The engine still executes healthy tasks.
	good := &fakeProgram{name: "fine-lease", ncpu: 4, pairs: 8}
	gt := Task{Program: good, Params: workload.Params{Scale: 1, Seed: 1},
		Label: "lease", Config: machine.DefaultConfig()}
	results, _, err := eng.Run(context.Background(), []Task{gt})
	if err != nil {
		t.Fatalf("engine unusable after contained scheduler panic: %v", err)
	}
	if results[0].Result == nil || results[0].Result.RunTime == 0 {
		t.Fatal("no result from the post-panic run")
	}
}
