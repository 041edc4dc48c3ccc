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

// TestSchedulerSweepCursor pins the multi-word cursor walk the calendar
// and parallel sweeps use over the dirty set. A CPU marked mid-sweep above
// the cursor — in the same word or a later one — is visited in the same
// sweep; one marked at or below the cursor (its own id included) keeps its
// mark and is visited by the next cycle's sweep, as the polling loop's
// full in-order scan would.
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
// traffic.
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
			if m.holders == nil || len(m.holders.get(0)) != (ncpu+63)/64 {
				t.Fatalf("holder index for %d CPUs not built with %d-word slots", ncpu, (ncpu+63)/64)
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
