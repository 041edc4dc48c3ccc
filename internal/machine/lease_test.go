package machine

import (
	"reflect"
	"testing"

	"syncsim/internal/locks"
	"syncsim/internal/trace"
)

// contentionTraces builds a workload with real cross-CPU traffic — a hot
// lock, a shared hot line under write contention, per-CPU private lines and
// a closing barrier — so speculative leases are created, snooped, rolled
// back and replayed, not just committed untouched.
func contentionTraces(ncpu int) [][]trace.Event {
	cpus := make([][]trace.Event, ncpu)
	for i := range cpus {
		private := 0x4000 + uint32(i)*0x100
		cpus[i] = []trace.Event{
			trace.Exec(uint32(1 + i%7)),
			trace.Read(0x1000), // shared hot line
			trace.Write(private),
			trace.Exec(uint32(2 + i%3)),
			trace.Read(private),
			trace.Lock(0, 0x9000),
			trace.Exec(3),
			trace.Write(0x1000), // invalidation storm inside the CS
			trace.Unlock(0, 0x9000),
			trace.Read(private),
			trace.Write(private + 16),
			trace.Barrier(0),
			trace.Exec(2),
			trace.Read(0x1000),
		}
	}
	return cpus
}

// leaseFree wraps every source of set in trace.Func, which forwards Next and
// implements nothing else: the machine cannot rewind such a source, so the
// calendar visits every processor serially, without leases.
func leaseFree(set *trace.Set) *trace.Set {
	for i, src := range set.Sources {
		set.Sources[i] = trace.Func(src.Next)
	}
	return set
}

// TestLeaseCounters pins the run's lease counters: a contended run
// speculates, counts its leased steps inside its steps, and rolls some
// leases back; a run without leases — over sources that cannot rewind, or
// under the polling loop — counts neither. Each reader runs ahead through
// hits on a shared line that a writer's invalidation then takes away
// mid-lease, which forces the rollbacks.
func TestLeaseCounters(t *testing.T) {
	const shared = 0x1000
	cpus := contentionTraces(8)
	for i := range cpus {
		if i%2 == 1 {
			cpus[i] = append(cpus[i], trace.Exec(uint32(20+i)), trace.Write(shared), trace.Exec(5))
			continue
		}
		cpus[i] = append(cpus[i], trace.Read(shared))
		for k := 0; k < 50; k++ {
			cpus[i] = append(cpus[i], trace.Exec(2), trace.Read(shared))
		}
	}
	run := func(sched SchedKind, set *trace.Set) SchedStats {
		t.Helper()
		cfg := defCfg()
		cfg.Sched = sched
		res, err := Run(set, cfg)
		if err != nil {
			t.Fatalf("Run(%v): %v", sched, err)
		}
		return res.Sched
	}
	st := run(SchedCalendar, trace.BufferSet("contention", cpus))
	if st.LeasedSteps == 0 || st.LeasedSteps > st.Steps {
		t.Errorf("%d leased steps of %d, want some and no more than all", st.LeasedSteps, st.Steps)
	}
	if st.Rollbacks == 0 {
		t.Errorf("no rollbacks on a contended run: %+v", st)
	}
	if st := run(SchedCalendar, leaseFree(trace.BufferSet("contention", cpus))); st.LeasedSteps != 0 || st.Rollbacks != 0 {
		t.Errorf("lease-free calendar counted leases: %+v", st)
	}
	if st := run(SchedPolling, trace.BufferSet("contention", cpus)); st.LeasedSteps != 0 || st.Rollbacks != 0 {
		t.Errorf("polling counted leases: %+v", st)
	}
}

// TestLeaseEquivalence pins the leasing calendar to the lease-free
// calendar bit-for-bit, invariant checker ON in both runs, across lock
// algorithms and both consistency models. The checker makes this the
// strongest machine-level gate: every committed state the speculation
// produces must also satisfy the Illinois, lock and monotonicity
// invariants mid-run.
func TestLeaseEquivalence(t *testing.T) {
	const ncpu = 12
	cpus := contentionTraces(ncpu)

	runWith := func(rewindable bool, alg locks.Algorithm, cons Consistency) *Result {
		t.Helper()
		cfg := defCfg()
		cfg.Check = true
		cfg.Lock = alg
		cfg.Consistency = cons
		set := trace.BufferSet("contention", cpus)
		if !rewindable {
			set = leaseFree(set)
		}
		m, err := New(set, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if rewindable && m.spec == nil {
			t.Fatalf("speculative executor not built for %d CPUs with rewindable sources", ncpu)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("Run(rewindable=%t %v %v): %v", rewindable, alg, cons, err)
		}
		res.Config = Config{}
		res.Sched = SchedStats{}
		return res
	}

	for _, alg := range []locks.Algorithm{locks.Queue, locks.TTS, locks.TTSBackoff} {
		for _, cons := range []Consistency{SeqConsistent, WeakOrdering} {
			want := runWith(false, alg, cons)
			if leased := runWith(true, alg, cons); !reflect.DeepEqual(want, leased) {
				t.Errorf("%v/%v: leased calendar diverges from lease-free:\nlease-free: %+v\nleased:     %+v",
					alg, cons, want, leased)
			}
		}
	}
}

// TestLeaseFallbackNonRewindable: a source that cannot Mark/Seek cannot
// be rolled back, so the machine must decline to speculate and fall back to
// the calendar loop.
func TestLeaseFallbackNonRewindable(t *testing.T) {
	const ncpu = 4
	cpus := contentionTraces(ncpu)
	mkSet := func(wrap bool) *trace.Set {
		set := trace.BufferSet("nonrewind", cpus)
		if wrap {
			for i, src := range set.Sources {
				s := src
				// trace.Func forwards Next but implements nothing else.
				set.Sources[i] = trace.Func(func() (trace.Event, bool) { return s.Next() })
			}
		}
		return set
	}
	cfg := defCfg()
	m, err := New(mkSet(true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.spec != nil {
		t.Fatal("speculative executor built over non-rewindable sources")
	}
	got, err := m.Run()
	if err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	m2, err := New(mkSet(false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	got.Config, want.Config = Config{}, Config{}
	got.Sched, want.Sched = SchedStats{}, SchedStats{}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fallback diverges from calendar:\ncalendar: %+v\nfallback: %+v", want, got)
	}
}

// TestLeaseStreamingFallback: a streaming trace cannot be rewound, so the
// calendar must detect the missing Marker capability, skip building the
// speculative executor, and step every processor serially — producing the
// exact Result a run over the same materialised trace does. This is the
// streaming→serial fallback rule of DESIGN §17.
func TestLeaseStreamingFallback(t *testing.T) {
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
	if m.spec != nil {
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
