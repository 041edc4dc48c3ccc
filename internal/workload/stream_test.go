package workload_test

import (
	"errors"
	"reflect"
	"testing"

	"syncsim/internal/machine"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
	"syncsim/internal/workload/grav"
	"syncsim/internal/workload/qsort"
	"syncsim/internal/workload/topopt"
)

// drainInterleaved consumes a streaming set the way the machine does — one
// loop visiting every CPU in turn — and returns the per-CPU event slices.
// (Draining one CPU to completion before starting the next would force the
// ring to buffer the whole cross-CPU skew.)
func drainInterleaved(set *trace.Set) [][]trace.Event {
	got := make([][]trace.Event, set.NCPU())
	live := set.NCPU()
	for live > 0 {
		live = 0
		for cpu, src := range set.Sources {
			if ev, ok := src.Next(); ok {
				got[cpu] = append(got[cpu], ev)
				live++
			}
		}
	}
	return got
}

// The streamed event sequences must be bit-identical to the materialised
// ones, benchmark by benchmark: streaming changes where events live, never
// what they are.
func TestStreamMatchesMaterialized(t *testing.T) {
	progs := []workload.Program{qsort.New(), grav.New(), topopt.New()}
	for _, prog := range progs {
		prog := prog
		t.Run(prog.Name(), func(t *testing.T) {
			t.Parallel()
			p := workload.Params{NCPU: 4, Scale: 0.02, Seed: 3}

			mat, err := prog.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]trace.Event, mat.NCPU())
			for cpu, src := range mat.Sources {
				want[cpu] = trace.Drain(src)
			}

			set, h, err := workload.StreamTraces(prog, p, 512)
			if err != nil {
				t.Fatal(err)
			}
			got := drainInterleaved(set)
			if err := h.Wait(); err != nil {
				t.Fatalf("Wait = %v", err)
			}
			for cpu := range want {
				if !reflect.DeepEqual(got[cpu], want[cpu]) {
					t.Fatalf("cpu %d: streamed %d events, materialised %d (or content differs)",
						cpu, len(got[cpu]), len(want[cpu]))
				}
			}
		})
	}
}

// A machine run over the streaming set must produce the same Result as the
// run over the materialised trace.
func TestStreamedSimulationEquals(t *testing.T) {
	prog := qsort.New()
	p := workload.Params{NCPU: 4, Scale: 0.02, Seed: 1}
	cfg := machine.DefaultConfig()

	mat, err := prog.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := machine.Run(mat, cfg)
	if err != nil {
		t.Fatal(err)
	}

	set, h, err := workload.StreamTraces(prog, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := machine.Run(set, cfg)
	if err != nil {
		h.Abort()
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatalf("Wait = %v", err)
	}
	// Sched counts the run loop's own work: the streamed run cannot rewind
	// its sources, so it runs without leases.
	got.Sched, want.Sched = machine.SchedStats{}, machine.SchedStats{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed result differs from materialised:\n got %+v\nwant %+v", got, want)
	}
}

// Abort must tear down the producer goroutine without a hang, and Wait must
// report the abort sentinel.
func TestStreamAbort(t *testing.T) {
	set, h, err := workload.StreamTraces(qsort.New(), workload.Params{NCPU: 4, Scale: 0.1, Seed: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Consume a little, then walk away mid-trace.
	for i := 0; i < 100; i++ {
		set.Sources[i%4].Next()
	}
	h.Abort()
	if err := h.Wait(); !errors.Is(err, trace.ErrStreamAborted) {
		t.Fatalf("Wait after Abort = %v, want ErrStreamAborted", err)
	}
}

// The streaming set must stay capability-free: no caching, no cloning, no
// speculative lease ever sees a half-consumed stream.
func TestStreamSetHasNoReplayCapabilities(t *testing.T) {
	set, h, err := workload.StreamTraces(qsort.New(), workload.Params{NCPU: 2, Scale: 0.01}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Abort()
	if _, ok := set.Events(); ok {
		t.Error("streaming set reports an event count")
	}
	if _, err := trace.Clone(set); err == nil {
		t.Error("streaming set is cloneable")
	}
	for i, src := range set.Sources {
		if _, ok := src.(trace.Marker); ok {
			t.Errorf("source %d implements Marker", i)
		}
	}
}
