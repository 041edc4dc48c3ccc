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

// TestParallelSchedEquivalence pins the speculative scheduler to the
// calendar bit-for-bit, invariant checker ON in both runs, across lock
// algorithms, both consistency models and several worker counts. The
// checker makes this the strongest machine-level gate: every committed
// state the speculation produces must also satisfy the Illinois, lock and
// monotonicity invariants mid-run.
func TestParallelSchedEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const ncpu = 12
	cpus := contentionTraces(ncpu)

	runWith := func(sched SchedKind, workers int, alg locks.Algorithm, cons Consistency) *Result {
		t.Helper()
		cfg := defCfg()
		cfg.Sched = sched
		cfg.Workers = workers
		cfg.Check = true
		cfg.Lock = alg
		cfg.Consistency = cons
		set := trace.BufferSet("contention", cpus)
		m, err := New(set, cfg)
		if err != nil {
			t.Fatalf("New(%v): %v", sched, err)
		}
		if sched == SchedParallel && m.par == nil {
			t.Fatalf("parallel executor not built for %d CPUs with rewindable sources", ncpu)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("Run(%v workers=%d %v %v): %v", sched, workers, alg, cons, err)
		}
		res.Config = Config{}
		res.Sched = SchedStats{}
		return res
	}

	for _, alg := range []locks.Algorithm{locks.Queue, locks.TTS, locks.TTSBackoff} {
		for _, cons := range []Consistency{SeqConsistent, WeakOrdering} {
			calendar := runWith(SchedCalendar, 0, alg, cons)
			for _, workers := range []int{0, 2, 8} {
				parallel := runWith(SchedParallel, workers, alg, cons)
				if !reflect.DeepEqual(calendar, parallel) {
					t.Errorf("%v/%v workers=%d: parallel diverges from calendar:\ncalendar: %+v\nparallel: %+v",
						alg, cons, workers, calendar, parallel)
				}
			}
		}
	}
}

// TestParallelSchedEquivalenceManyCPUs pins the speculative scheduler to
// the calendar past 64 processors, where the dirty set it walks and the
// holder index it routes snoops through span two words: the executor must
// be built, and every worker count must match the calendar bit-for-bit,
// checker on.
func TestParallelSchedEquivalenceManyCPUs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, ncpu := range []int{72, 128} {
		cpus := contentionTraces(ncpu)
		run := func(sched SchedKind, workers int) *Result {
			cfg := defCfg()
			cfg.Sched = sched
			cfg.Workers = workers
			cfg.Check = true
			set := trace.BufferSet("manycpu", cpus)
			m, err := New(set, cfg)
			if err != nil {
				t.Fatalf("New(%v): %v", sched, err)
			}
			if sched == SchedParallel && m.par == nil {
				t.Fatalf("parallel executor not built for %d CPUs with rewindable sources", ncpu)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("Run(%v workers=%d): %v", sched, workers, err)
			}
			res.Config = Config{}
			res.Sched = SchedStats{}
			return res
		}
		calendar := run(SchedCalendar, 0)
		for _, workers := range []int{0, 2, 8} {
			if parallel := run(SchedParallel, workers); !reflect.DeepEqual(calendar, parallel) {
				t.Errorf("%d CPUs, workers=%d: parallel diverges from calendar:\ncalendar: %+v\nparallel: %+v",
					ncpu, workers, calendar, parallel)
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
	cfg.Sched = SchedParallel
	m, err := New(mkSet(true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.par != nil {
		t.Fatal("parallel executor built over non-rewindable sources")
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
	before := runtime.NumGoroutine()
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
		cfg.Sched = SchedParallel
		cfg.Workers = 4
		m, err := New(set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.par == nil {
			t.Fatal("parallel executor not built over panicSource (Marker not detected)")
		}
		_, _ = m.Run()
	}()
	// The deferred pool shutdown must have run despite the panic unwinding
	// through runParallel.
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("worker goroutines leaked after panic: %d before, %d after", before, now)
	}
}
