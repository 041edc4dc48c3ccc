package machine

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"syncsim/internal/locks"
	"syncsim/internal/trace"
)

func TestTimeHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h timeHeap
	var want []uint64
	for i := 0; i < 500; i++ {
		v := uint64(rng.Intn(64)) // duplicates are likely and must be kept
		h.push(v)
		want = append(want, v)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, w := range want {
		if len(h) == 0 {
			t.Fatalf("heap empty after %d pops, want %d entries", i, len(want))
		}
		if got := h.pop(); got != w {
			t.Fatalf("pop %d = %d, want %d (nondecreasing order with duplicates)", i, got, w)
		}
	}
	if len(h) != 0 {
		t.Errorf("heap has %d leftover entries", len(h))
	}
}

func TestCPUHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h cpuHeap
	var want []uint64
	for i := 0; i < 300; i++ {
		at := uint64(rng.Intn(40))
		h.push(cpuWakeup{at: at, id: i % 8})
		want = append(want, at)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, w := range want {
		if got := h.pop(); got.at != w {
			t.Fatalf("pop %d at = %d, want %d", i, got.at, w)
		}
	}
}

func TestSchedulerWakeDedup(t *testing.T) {
	s := newScheduler(4)
	s.wake(2, 10)
	s.wake(2, 10) // identical wakeup must collapse
	s.wake(2, 10)
	if len(s.wakes) != 1 {
		t.Fatalf("duplicate wake(2,10) produced %d heap entries, want 1", len(s.wakes))
	}
	s.wake(2, 12) // a different cycle is a new wakeup
	s.wake(3, 10) // another CPU at the same cycle is too
	if len(s.wakes) != 3 {
		t.Fatalf("heap has %d entries, want 3", len(s.wakes))
	}
	// A wakeup due at cycle 0 (a zero-length burst at the first cycle) is
	// a real wakeup, not the "nothing pending" mark.
	s.startCycle(0)
	s.wake(1, 0)
	if len(s.wakes) != 4 {
		t.Fatalf("wake(1, 0) was dropped as a duplicate: heap has %d entries, want 4", len(s.wakes))
	}
}

func TestSchedulerDrainDue(t *testing.T) {
	s := newScheduler(8)
	s.wake(1, 5)
	s.wake(2, 7)
	s.wake(3, 9)
	s.drainDue(7)
	if !s.dirty.has(1) || !s.dirty.has(2) {
		t.Error("wakeups due at or before now must be drained into the dirty set")
	}
	if s.dirty.has(3) {
		t.Error("future wakeup drained early")
	}
	if s.ndirty != 2 {
		t.Errorf("ndirty = %d, want 2", s.ndirty)
	}
	// The drained slots must be reusable: a fresh wakeup at the same cycle
	// is NOT a duplicate once the old one has fired.
	s.wake(1, 5)
	if len(s.wakes) != 2 {
		t.Errorf("re-arming a drained wakeup gave %d heap entries, want 2", len(s.wakes))
	}
}

func TestSchedulerMarkUnmark(t *testing.T) {
	s := newScheduler(4)
	s.mark(0)
	s.mark(0) // idempotent
	s.mark(3)
	if s.ndirty != 2 {
		t.Fatalf("ndirty = %d, want 2", s.ndirty)
	}
	s.unmark(0)
	s.unmark(0) // idempotent
	if s.ndirty != 1 || s.dirty.has(0) || !s.dirty.has(3) {
		t.Fatalf("after unmark: ndirty=%d dirty=%v", s.ndirty, s.dirty)
	}
}

func TestSchedulerNextAfter(t *testing.T) {
	s := newScheduler(2)
	if _, ok := s.nextAfter(0); ok {
		t.Fatal("empty calendar must report no next cycle (deadlock signal)")
	}
	s.pushTime(5)
	s.pushTime(3)
	s.pushTime(3) // stale after we advance past it
	if at, ok := s.nextAfter(0); !ok || at != 3 {
		t.Fatalf("nextAfter(0) = %d,%v, want 3,true", at, ok)
	}
	if at, ok := s.nextAfter(3); !ok || at != 5 {
		t.Fatalf("nextAfter(3) = %d,%v, want 5,true (stale 3s discarded)", at, ok)
	}
	// A timed wakeup competes with candidate cycles...
	s.wake(0, 4)
	if at, ok := s.nextAfter(3); !ok || at != 4 {
		t.Fatalf("nextAfter(3) with wake at 4 = %d,%v, want 4,true", at, ok)
	}
	// ...and one stamped in the past is clamped to now+1, never now or
	// earlier (a zero-length burst still costs a cycle).
	s2 := newScheduler(2)
	s2.wake(1, 2)
	if at, ok := s2.nextAfter(10); !ok || at != 11 {
		t.Fatalf("past wakeup: nextAfter(10) = %d,%v, want 11,true", at, ok)
	}
}

// TestSchedulerSweepCursor pins the multi-word cursor walk the calendar's
// sweep uses over the dirty set. A CPU marked mid-sweep above the cursor —
// in the same word or a later one — is visited in the same sweep; one
// marked at or below the cursor (its own id included) keeps its mark and
// is visited by the next cycle's sweep, as the polling loop's full
// in-order scan would.
func TestSchedulerSweepCursor(t *testing.T) {
	s := newScheduler(200)
	sweep := func(perturb func(id int)) (visited []int) {
		for id := s.dirty.next(0); id >= 0; id = s.dirty.next(id + 1) {
			s.unmark(id)
			visited = append(visited, id)
			perturb(id)
		}
		return visited
	}
	s.mark(3)
	s.mark(70)
	got := sweep(func(id int) {
		switch id {
		case 3:
			s.mark(130) // a later word: this sweep
			s.mark(3)   // its own id: carries
		case 70:
			s.mark(71)  // just above the cursor: this sweep
			s.mark(65)  // below the cursor, same word: carries
			s.mark(1)   // an earlier word: carries
			s.mark(199) // the last id of the last word: this sweep
		case 130:
			s.mark(130) // its own id again, in a later word: carries
		}
	})
	if want := []int{3, 70, 71, 130, 199}; !reflect.DeepEqual(got, want) {
		t.Fatalf("first sweep visited %v, want %v", got, want)
	}
	if s.ndirty != 4 {
		t.Fatalf("ndirty after the sweep = %d, want 4 carried marks", s.ndirty)
	}
	if got, want := sweep(func(int) {}), []int{1, 3, 65, 130}; !reflect.DeepEqual(got, want) {
		t.Fatalf("carry-over sweep visited %v, want %v", got, want)
	}
	if s.ndirty != 0 || s.dirty.next(0) >= 0 {
		t.Fatalf("dirty set not empty after the carry-over sweep: ndirty=%d", s.ndirty)
	}
}

// TestSchedulerEquivalenceManyCPUs pins the calendar to the polling loop
// past 64 processors, where the holder index and the calendar's near and
// dirty sets span two words, checker on, on a workload with real
// contention: one hot lock, a shared hot line, and per-CPU private
// traffic. The calendar must build its speculative executor there: the
// leases, not a serial fallback, are what is compared.
func TestSchedulerEquivalenceManyCPUs(t *testing.T) {
	for _, ncpu := range []int{72, 128} {
		cpus := make([][]trace.Event, ncpu)
		for i := range cpus {
			private := 0x4000 + uint32(i)*0x100
			cpus[i] = []trace.Event{
				trace.Exec(uint32(1 + i%7)),
				trace.Read(0x1000), // shared hot line
				trace.Write(private),
				trace.Lock(0, 0x9000),
				trace.Exec(3),
				trace.Write(0x1000), // invalidation storm inside the CS
				trace.Unlock(0, 0x9000),
				trace.Read(private),
				trace.Barrier(0),
				trace.Exec(2),
			}
		}

		runWith := func(sched SchedKind, model locks.Algorithm) *Result {
			cfg := defCfg()
			cfg.Sched = sched
			cfg.Check = true
			cfg.Lock = model
			set := trace.BufferSet("manycpu", cpus)
			m, err := New(set, cfg)
			if err != nil {
				t.Fatalf("New(%v): %v", sched, err)
			}
			if _, set := m.holders.lookup(0); len(set) != (ncpu+63)/64 {
				t.Fatalf("holder index for %d CPUs not built with %d-word slots", ncpu, (ncpu+63)/64)
			}
			if sched == SchedCalendar && m.spec == nil {
				t.Fatalf("speculative executor not built for %d CPUs with rewindable sources", ncpu)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("Run(%v, %v): %v", sched, model, err)
			}
			// The only fields allowed to differ: the scheduler selection
			// echoed in the result's config, and the loops' own work
			// counters.
			res.Config.Sched = SchedCalendar
			res.Sched = SchedStats{}
			return res
		}
		for _, model := range []locks.Algorithm{locks.Queue, locks.TTS} {
			calendar := runWith(SchedCalendar, model)
			polling := runWith(SchedPolling, model)
			if !reflect.DeepEqual(calendar, polling) {
				t.Errorf("calendar and polling diverge on %d-CPU run under %v:\ncalendar: %+v\npolling:  %+v",
					ncpu, model, calendar, polling)
			}
		}
	}
}

// requireLoopsAgree runs a trace under polling, the leased calendar and
// the lease-free calendar (sources wrapped in trace.Func), under both lock
// families and both consistency models, and requires every loop to finish
// with polling's result.
func requireLoopsAgree(t *testing.T, cpus [][]trace.Event) {
	t.Helper()
	for _, model := range []locks.Algorithm{locks.Queue, locks.TTS} {
		for _, cons := range []Consistency{SeqConsistent, WeakOrdering} {
			run := func(loop string, sched SchedKind, rewindable bool) *Result {
				t.Helper()
				cfg := defCfg()
				cfg.Sched = sched
				cfg.Lock = model
				cfg.Consistency = cons
				cfg.Check = true
				set := trace.BufferSet("agree", cpus)
				if !rewindable {
					set = leaseFree(set)
				}
				res, err := Run(set, cfg)
				if err != nil {
					t.Fatalf("%v/%v %s: %v", model, cons, loop, err)
				}
				res.Config = Config{}
				res.Sched = SchedStats{}
				return res
			}
			want := run("polling", SchedPolling, true)
			for _, c := range []struct {
				loop       string
				rewindable bool
			}{
				{"leased calendar", true},
				{"lease-free calendar", false},
			} {
				if got := run(c.loop, SchedCalendar, c.rewindable); !reflect.DeepEqual(got, want) {
					t.Errorf("%v/%v: %s diverges from polling:\npolling: %+v\n%s: %+v",
						model, cons, c.loop, want, c.loop, got)
				}
			}
		}
	}
}

// TestSchedulerEquivalenceZeroBurst pins zero-length execution bursts, which
// every loop must round up to one cycle, as the polling loop's clamp does.
// Two defects hid here. The wakeup dedup once read 0 as "no wakeup
// pending" and dropped a burst due at cycle 0, so the lease-free calendar
// stalled with CPU 0 mid-burst ("deadlocked at cycle 11"). And a serial
// step that completed a blocking event and then entered a zero-length
// burst — the last arrival at a barrier, a test-and-set lock taken on an
// owned line, a weak-ordering drain — was once leased at the current
// cycle, so the leased loop consumed the following event a cycle early.
func TestSchedulerEquivalenceZeroBurst(t *testing.T) {
	const lock, line = 1, 0x400
	for _, tr := range []struct {
		name string
		cpus [][]trace.Event
	}{
		{"burst at cycle 0", [][]trace.Event{
			{trace.Exec(0), trace.Read(0x100), trace.Exec(2)},
			{trace.Exec(5), trace.Read(0x200)},
		}},
		{"after barrier release", [][]trace.Event{
			{trace.Exec(3), trace.Barrier(0), trace.Exec(0), trace.Exec(5)},
			{trace.Barrier(0)},
		}},
		{"after lock re-acquire", [][]trace.Event{
			{trace.Lock(lock, line), trace.Unlock(lock, line),
				trace.Lock(lock, line), trace.Exec(0), trace.Exec(5),
				trace.Unlock(lock, line)},
			{trace.Exec(40), trace.Read(0x200), trace.Exec(0), trace.Exec(3)},
		}},
		{"after write drain", [][]trace.Event{
			{trace.Write(0x100), trace.Lock(lock, line), trace.Exec(0),
				trace.Exec(5), trace.Unlock(lock, line), trace.Barrier(0),
				trace.Exec(0), trace.Exec(2)},
			{trace.Write(0x200), trace.Barrier(0), trace.Exec(0), trace.Exec(4)},
			{trace.Exec(9), trace.Barrier(0), trace.Exec(0), trace.Exec(1)},
		}},
	} {
		t.Run(tr.name, func(t *testing.T) { requireLoopsAgree(t, tr.cpus) })
	}
}

// TestSchedulerEquivalenceExplicitEnd pins traces that end in an explicit
// End event rather than running out. Processing End leaves the processor
// finishing, and the polling loop finishes it at its next step; the
// calendar once registered no wakeup for it and reported a deadlock
// ("[cpu0 finishing buf=0]"). Buffered writes must still drain first.
func TestSchedulerEquivalenceExplicitEnd(t *testing.T) {
	for _, tr := range []struct {
		name string
		cpus [][]trace.Event
	}{
		{"after burst", [][]trace.Event{
			{trace.Exec(3), trace.Barrier(0), trace.Exec(4), trace.End()},
			{trace.Barrier(0), trace.End()},
		}},
		{"after hit", [][]trace.Event{
			{trace.Read(0x100), trace.Exec(2), trace.Read(0x100), trace.End()},
			{trace.Exec(7), trace.End(), trace.Exec(5)},
		}},
		{"with buffered write", [][]trace.Event{
			{trace.Write(0x100), trace.End()},
			{trace.Write(0x100), trace.Exec(1), trace.End()},
		}},
	} {
		t.Run(tr.name, func(t *testing.T) { requireLoopsAgree(t, tr.cpus) })
	}
}
