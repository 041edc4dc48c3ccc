package machine

import (
	"reflect"
	"runtime"
	"strings"
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
	run := func(sched SchedKind, workers int, set *trace.Set) SchedStats {
		t.Helper()
		cfg := defCfg()
		cfg.Sched = sched
		cfg.Workers = workers
		res, err := Run(set, cfg)
		if err != nil {
			t.Fatalf("Run(%v, workers=%d): %v", sched, workers, err)
		}
		return res.Sched
	}
	for _, workers := range []int{0, 2} {
		st := run(SchedCalendar, workers, trace.BufferSet("contention", cpus))
		if st.LeasedSteps == 0 || st.LeasedSteps > st.Steps {
			t.Errorf("workers=%d: %d leased steps of %d, want some and no more than all", workers, st.LeasedSteps, st.Steps)
		}
		if st.Rollbacks == 0 {
			t.Errorf("workers=%d: no rollbacks on a contended run: %+v", workers, st)
		}
	}
	if st := run(SchedCalendar, 0, leaseFree(trace.BufferSet("contention", cpus))); st.LeasedSteps != 0 || st.Rollbacks != 0 {
		t.Errorf("lease-free calendar counted leases: %+v", st)
	}
	if st := run(SchedPolling, 0, trace.BufferSet("contention", cpus)); st.LeasedSteps != 0 || st.Rollbacks != 0 {
		t.Errorf("polling counted leases: %+v", st)
	}
}

// TestParallelSchedEquivalence pins the leasing calendar — inline and with
// a worker pool at several worker counts — to the lease-free calendar
// bit-for-bit, invariant checker ON in every run,
// across lock algorithms and both consistency models. The checker makes
// this the strongest machine-level gate: every committed state the
// speculation produces must also satisfy the Illinois, lock and
// monotonicity invariants mid-run.
func TestParallelSchedEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const ncpu = 12
	cpus := contentionTraces(ncpu)

	runWith := func(workers int, rewindable bool, alg locks.Algorithm, cons Consistency) *Result {
		t.Helper()
		cfg := defCfg()
		cfg.Workers = workers
		cfg.Check = true
		cfg.Lock = alg
		cfg.Consistency = cons
		set := trace.BufferSet("contention", cpus)
		if !rewindable {
			set = leaseFree(set)
		}
		m, err := New(set, cfg)
		if err != nil {
			t.Fatalf("New(workers=%d): %v", workers, err)
		}
		if rewindable && m.par == nil {
			t.Fatalf("speculative executor not built for %d CPUs with rewindable sources", ncpu)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("Run(workers=%d %v %v): %v", workers, alg, cons, err)
		}
		res.Config = Config{}
		res.Sched = SchedStats{}
		return res
	}

	for _, alg := range []locks.Algorithm{locks.Queue, locks.TTS, locks.TTSBackoff} {
		for _, cons := range []Consistency{SeqConsistent, WeakOrdering} {
			want := runWith(0, false, alg, cons)
			for _, workers := range []int{0, 2, 8} {
				leased := runWith(workers, true, alg, cons)
				if !reflect.DeepEqual(want, leased) {
					t.Errorf("%v/%v workers=%d: leased calendar diverges from lease-free:\nlease-free: %+v\nleased:     %+v",
						alg, cons, workers, want, leased)
				}
			}
		}
	}
}

// TestParallelSchedEquivalenceManyCPUs pins the calendar's worker pool to
// the inline calendar past 64 processors, where the dirty set it walks and
// the holder index it routes snoops through span two words: the executor
// must be built and the pool started, and every worker count must match
// the inline run bit-for-bit, checker on.
func TestParallelSchedEquivalenceManyCPUs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, ncpu := range []int{72, 128} {
		cpus := contentionTraces(ncpu)
		run := func(workers int) *Result {
			cfg := defCfg()
			cfg.Workers = workers
			cfg.Check = true
			set := trace.BufferSet("manycpu", cpus)
			m, err := New(set, cfg)
			if err != nil {
				t.Fatalf("New(workers=%d): %v", workers, err)
			}
			if m.par == nil {
				t.Fatalf("speculative executor not built for %d CPUs with rewindable sources", ncpu)
			}
			if w := m.effectiveWorkers(); workers > 1 && w < 2 {
				t.Fatalf("%d CPUs, workers=%d: pool of %d, want one to start", ncpu, workers, w)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("Run(workers=%d): %v", workers, err)
			}
			res.Config = Config{}
			res.Sched = SchedStats{}
			return res
		}
		inline := run(0)
		for _, workers := range []int{2, 8} {
			if pooled := run(workers); !reflect.DeepEqual(inline, pooled) {
				t.Errorf("%d CPUs, workers=%d: pooled calendar diverges from inline:\ninline: %+v\npooled: %+v",
					ncpu, workers, inline, pooled)
			}
		}
	}
}

// TestParallelFallbackNonRewindable: a source that cannot Mark/Seek cannot
// be rolled back, so the machine must decline to speculate and fall back to
// the calendar loop.
func TestParallelFallbackNonRewindable(t *testing.T) {
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
	cfg.Workers = 2
	m, err := New(mkSet(true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.par != nil {
		t.Fatal("speculative executor built over non-rewindable sources")
	}
	got, err := m.Run()
	if err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	cfg2 := defCfg()
	m2, err := New(mkSet(false), cfg2)
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

// panicSource is a rewindable source that panics after a fixed number of
// events, modeling a poisoned trace discovered mid-speculation.
type panicSource struct {
	inner *trace.Buffer
	left  int
}

func (p *panicSource) Next() (trace.Event, bool) {
	if p.left <= 0 {
		panic("panicSource: poisoned event")
	}
	p.left--
	return p.inner.Next()
}

func (p *panicSource) Mark() trace.Mark  { return p.inner.Mark() }
func (p *panicSource) Seek(m trace.Mark) { p.inner.Seek(m) }

// TestParallelWorkerPanicPropagates: a panic inside a pool worker's
// speculative advance must surface as a coordinator panic (for the
// engine's panic barrier to convert), not hang the join or leak the pool.
func TestParallelWorkerPanicPropagates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var m *Machine
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("worker panic did not propagate")
			}
			if !strings.Contains(r.(string), "parallel advance") || !strings.Contains(r.(string), "poisoned") {
				t.Fatalf("panic value %q does not carry the worker context", r)
			}
		}()
		cpus := contentionTraces(8)
		set := trace.BufferSet("poisoned", cpus)
		for i, src := range set.Sources {
			// One good event each: the opening Exec burst is consumed by
			// the cycle-0 pre-dispatched advance, so the poisoned second
			// event panics inside a pool worker, not on the coordinator.
			set.Sources[i] = &panicSource{inner: src.(*trace.Buffer), left: 1}
		}
		cfg := defCfg()
		cfg.Workers = 4
		var err error
		m, err = New(set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.par == nil {
			t.Fatal("speculative executor not built over panicSource (Marker not detected)")
		}
		_, _ = m.Run()
	}()
	// The deferred pool shutdown must have run despite the panic unwinding
	// through runCalendar. It closes the job channel, waits until every
	// worker has returned, and only then clears the channels, so cleared
	// channels mean no worker is left. (Counting goroutines instead is
	// racy: the runtime may count a returned worker a moment longer.)
	if m.par.jobs != nil || m.par.done != nil {
		t.Error("worker pool not shut down after the panic")
	}
}
