package machine

import (
	"reflect"
	"testing"

	"syncsim/internal/trace"
)

// A streaming trace cannot be rewound, so the calendar must detect the
// missing Marker capability, skip building the speculative executor, and
// step every processor serially — producing the exact Result a run over
// the same materialised trace does. This is the streaming→serial fallback
// rule of DESIGN §17.
func TestParallelStreamingFallback(t *testing.T) {
	const ncpu = 4
	cpus := contentionTraces(ncpu)

	cfg := defCfg()
	cfg.Check = true
	want, err := Run(trace.BufferSet("contention", cpus), cfg)
	if err != nil {
		t.Fatal(err)
	}

	ring := trace.NewRingSet("contention", ncpu, 8)
	go func() {
		// Emit round-robin like a virtual-time coordinator; the tiny
		// budget forces real backpressure against the machine.
		for i := 0; ; i++ {
			live := false
			for cpu := 0; cpu < ncpu; cpu++ {
				if i < len(cpus[cpu]) {
					addEvent(ring, cpu, cpus[cpu][i])
					live = true
				}
			}
			if !live {
				break
			}
		}
		ring.Close(nil)
	}()

	m, err := New(ring.Set(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.par != nil {
		t.Fatal("speculative executor built over streaming sources; fallback did not trigger")
	}
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run over streaming set: %v", err)
	}

	// Config and Sched describe the run request, which legitimately
	// differs; every simulated quantity must match.
	got.Config, want.Config = Config{}, Config{}
	got.Sched, want.Sched = SchedStats{}, SchedStats{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming fallback result differs from serial run:\n got %+v\nwant %+v", got, want)
	}
}

// addEvent queues ev on cpu as a one-record chunk.
func addEvent(r *trace.RingSet, cpu int, ev trace.Event) {
	var c trace.Compact
	c.Add(ev)
	r.AddChunk(cpu, &c)
}
