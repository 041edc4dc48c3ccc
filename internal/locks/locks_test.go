package locks

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAlgorithmString(t *testing.T) {
	if Queue.String() != "queue" || TTS.String() != "tts" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(9).String() == "" {
		t.Error("invalid algorithm prints empty")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range []Algorithm{Queue, TTS, QueueExact, TTSBackoff} {
		if got, err := ParseAlgorithm(a.String()); err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", a, got, err, a)
		}
	}
	for _, name := range []string{"bogus", "QUEUE", "Algorithm(4)", ""} {
		if _, err := ParseAlgorithm(name); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted an unknown name", name)
		}
	}
}

func TestUncontendedAcquireRelease(t *testing.T) {
	m := NewManager()
	if !m.Request(0, 1, 0x40, 100) {
		t.Fatal("request on free lock not granted")
	}
	if m.Owner(1) != 0 {
		t.Fatalf("owner = %d, want 0", m.Owner(1))
	}
	next, has := m.Release(0, 1, 150)
	if has || next != NoOwner {
		t.Fatalf("release returned waiter %d on uncontended lock", next)
	}
	st := m.Stats()
	if st.Acquisitions != 1 || st.HoldCycles != 50 || st.Transfers != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.AvgHold() != 50 {
		t.Errorf("AvgHold = %v", st.AvgHold())
	}
}

func TestFIFOQueueAndGrant(t *testing.T) {
	m := NewManager()
	m.Request(0, 1, 0x40, 0)
	if m.Request(1, 1, 0x40, 10) {
		t.Fatal("request on held lock granted")
	}
	if m.Request(2, 1, 0x40, 20) {
		t.Fatal("request on held lock granted")
	}
	if m.Waiters(1) != 2 {
		t.Fatalf("waiters = %d, want 2", m.Waiters(1))
	}
	next, has := m.Release(0, 1, 100)
	if !has || next != 1 {
		t.Fatalf("release → %d,%v; want 1,true (FIFO)", next, has)
	}
	m.Grant(1, 1, 102)
	if m.Owner(1) != 1 {
		t.Fatalf("owner = %d, want 1", m.Owner(1))
	}
	st := m.Stats()
	if st.Transfers != 1 {
		t.Errorf("Transfers = %d, want 1", st.Transfers)
	}
	if st.WaitersAtTransfer != 1 { // cpu 2 still waiting
		t.Errorf("WaitersAtTransfer = %d, want 1", st.WaitersAtTransfer)
	}
	if st.TransferHoldCycles != 100 {
		t.Errorf("TransferHoldCycles = %d, want 100", st.TransferHoldCycles)
	}
	if st.TransferWaitCycles != 2 {
		t.Errorf("TransferWaitCycles = %d, want 2", st.TransferWaitCycles)
	}
	if st.AvgTransferTime() != 2 {
		t.Errorf("AvgTransferTime = %v, want 2", st.AvgTransferTime())
	}
}

func TestRequestDuringHandoffQueues(t *testing.T) {
	m := NewManager()
	m.Request(0, 1, 0x40, 0)
	m.Request(1, 1, 0x40, 1)
	m.Release(0, 1, 50)
	// Lock is technically free but reserved for cpu 1's hand-off: a new
	// request must queue behind it.
	if m.Request(2, 1, 0x40, 51) {
		t.Fatal("request granted during pending hand-off")
	}
	m.Grant(1, 1, 52)
	if m.Owner(1) != 1 {
		t.Fatal("hand-off lost")
	}
	if m.Waiters(1) != 1 {
		t.Fatalf("waiters = %d, want 1 (cpu 2)", m.Waiters(1))
	}
}

func TestGrantValidation(t *testing.T) {
	t.Run("grant without handoff panics", func(t *testing.T) {
		m := NewManager()
		m.Request(0, 1, 0x40, 0)
		m.Request(1, 1, 0x40, 1)
		defer func() {
			if recover() == nil {
				t.Fatal("Grant without pending hand-off did not panic")
			}
		}()
		m.Grant(1, 1, 5)
	})
	t.Run("grant to non-head panics", func(t *testing.T) {
		m := NewManager()
		m.Request(0, 1, 0x40, 0)
		m.Request(1, 1, 0x40, 1)
		m.Request(2, 1, 0x40, 2)
		m.Release(0, 1, 10)
		defer func() {
			if recover() == nil {
				t.Fatal("Grant to non-head did not panic")
			}
		}()
		m.Grant(2, 1, 12)
	})
}

func TestReleaseValidation(t *testing.T) {
	t.Run("release unowned", func(t *testing.T) {
		m := NewManager()
		defer func() {
			if recover() == nil {
				t.Fatal("Release of unowned lock did not panic")
			}
		}()
		m.Release(0, 1, 10)
	})
	t.Run("release by non-owner", func(t *testing.T) {
		m := NewManager()
		m.Request(0, 1, 0x40, 0)
		defer func() {
			if recover() == nil {
				t.Fatal("Release by non-owner did not panic")
			}
		}()
		m.Release(1, 1, 10)
	})
}

func TestDoubleRequestPanics(t *testing.T) {
	t.Run("owner re-request", func(t *testing.T) {
		m := NewManager()
		m.Request(0, 1, 0x40, 0)
		defer func() {
			if recover() == nil {
				t.Fatal("owner re-request did not panic")
			}
		}()
		m.Request(0, 1, 0x40, 5)
	})
	t.Run("waiter re-request", func(t *testing.T) {
		m := NewManager()
		m.Request(0, 1, 0x40, 0)
		m.Request(1, 1, 0x40, 1)
		defer func() {
			if recover() == nil {
				t.Fatal("waiter re-request did not panic")
			}
		}()
		m.Request(1, 1, 0x40, 5)
	})
}

func TestTTSRace(t *testing.T) {
	m := NewManager()
	m.Request(0, 1, 0x40, 0)
	m.Request(1, 1, 0x40, 1)
	m.Request(2, 1, 0x40, 2)
	m.Release(0, 1, 100)
	// cpu 2 wins the race despite arriving after cpu 1 (T&T&S is unfair).
	if !m.TryAcquireRace(2, 1, 120) {
		t.Fatal("race winner rejected")
	}
	if m.TryAcquireRace(1, 1, 121) {
		t.Fatal("second test&set won a held lock")
	}
	if m.Owner(1) != 2 {
		t.Fatalf("owner = %d, want 2", m.Owner(1))
	}
	st := m.Stats()
	if st.Transfers != 1 {
		t.Errorf("Transfers = %d, want 1", st.Transfers)
	}
	if st.WaitersAtTransfer != 1 { // cpu 1 still queued
		t.Errorf("WaitersAtTransfer = %d, want 1", st.WaitersAtTransfer)
	}
	if st.TransferWaitCycles != 20 {
		t.Errorf("TransferWaitCycles = %d, want 20", st.TransferWaitCycles)
	}
	if m.Waiters(1) != 1 {
		t.Errorf("waiters = %d, want 1", m.Waiters(1))
	}
}

func TestTTSAcquireByNonWaiterIsNotTransfer(t *testing.T) {
	m := NewManager()
	m.Request(0, 1, 0x40, 0)
	next, has := m.Release(0, 1, 50)
	if has || next != NoOwner {
		t.Fatal("unexpected waiter")
	}
	// A fresh processor grabs the free lock: an acquisition, not a transfer.
	if !m.TryAcquireRace(3, 1, 60) {
		t.Fatal("free lock not acquired")
	}
	if m.Stats().Transfers != 0 {
		t.Errorf("Transfers = %d, want 0", m.Stats().Transfers)
	}
}

func TestWaiterHistogram(t *testing.T) {
	m := NewManager()
	m.Request(0, 1, 0x40, 0)
	m.Request(1, 1, 0x40, 1)
	m.Request(2, 1, 0x40, 2)
	m.Request(3, 1, 0x40, 3)
	m.Release(0, 1, 10)
	m.Grant(1, 1, 11) // 2 waiters remain
	st := m.Stats()
	if st.WaiterHistogram[2] != 1 {
		t.Errorf("histogram = %v, want bucket 2 == 1", st.WaiterHistogram)
	}
	if st.MaxWaiters != 3 {
		t.Errorf("MaxWaiters = %d, want 3", st.MaxWaiters)
	}
}

func TestHeldByAndAnyHeld(t *testing.T) {
	m := NewManager()
	if len(m.HeldLocks()) != 0 {
		t.Fatal("fresh manager reports held locks")
	}
	m.Request(0, 1, 0x40, 0)
	m.Request(0, 2, 0x80, 5)
	held := m.HeldBy(0)
	if len(held) != 2 {
		t.Fatalf("HeldBy = %v", held)
	}
	if len(m.HeldLocks()) == 0 {
		t.Fatal("HeldLocks empty with owned locks")
	}
	m.Release(0, 1, 10)
	m.Release(0, 2, 10)
	if len(m.HeldLocks()) != 0 {
		t.Fatal("HeldLocks non-empty after all releases")
	}
}

func TestPerLock(t *testing.T) {
	m := NewManager()
	m.Request(0, 1, 0x40, 0)
	m.Release(0, 1, 10)
	m.Request(1, 1, 0x40, 20)
	m.Release(1, 1, 30)
	m.Request(0, 2, 0x80, 0)
	m.Release(0, 2, 5)
	info := m.PerLock()
	if info[1].Acquisitions != 2 || info[2].Acquisitions != 1 {
		t.Errorf("PerLock = %+v", info)
	}
	if info[1].Addr != 0x40 {
		t.Errorf("lock 1 addr = %#x", info[1].Addr)
	}
}

func TestOwnerAndWaitersUnknownLock(t *testing.T) {
	m := NewManager()
	if m.Owner(99) != NoOwner || m.Waiters(99) != 0 || m.Addr(99) != 0 {
		t.Error("unknown lock should be free with no waiters")
	}
}

func TestEmptyStatsAverages(t *testing.T) {
	var s Stats
	if s.AvgHold() != 0 || s.AvgWaitersAtTransfer() != 0 || s.AvgTransferHold() != 0 || s.AvgTransferTime() != 0 {
		t.Error("averages over zero events should be 0")
	}
}

// Property: under a random but well-formed schedule of request/release with
// FIFO grants, (a) the manager never loses a processor, (b) transfers never
// exceed acquisitions, and (c) total acquisitions equal total releases at
// quiescence.
func TestManagerInvariantProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager()
		const ncpu = 6
		state := make([]int, ncpu) // 0 idle, 1 waiting, 2 holding
		var pendingGrant = NoOwner
		now := uint64(0)
		releases := 0
		for step := 0; step < 300; step++ {
			now += uint64(rng.Intn(5) + 1)
			cpu := rng.Intn(ncpu)
			switch state[cpu] {
			case 0:
				if m.Request(cpu, 7, 0x1c0, now) {
					state[cpu] = 2
				} else {
					state[cpu] = 1
				}
			case 2:
				if next, has := m.Release(cpu, 7, now); has {
					pendingGrant = next
				}
				state[cpu] = 0
				releases++
				if pendingGrant != NoOwner {
					m.Grant(pendingGrant, 7, now+1)
					state[pendingGrant] = 2
					pendingGrant = NoOwner
				}
			}
		}
		// Drain: release the final holder if any.
		for cpu := 0; cpu < ncpu; cpu++ {
			if state[cpu] == 2 {
				if next, has := m.Release(cpu, 7, now+10); has {
					m.Grant(next, 7, now+11)
					state[next] = 2
				}
				state[cpu] = 0
				releases++
				cpu = -1 // restart scan until no holder remains
			}
		}
		st := m.Stats()
		if st.Transfers > st.Acquisitions {
			return false
		}
		return uint64(releases) == st.Acquisitions
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The per-lock transfer fields must decompose the aggregate Stats exactly:
// summed over all locks they reproduce the program-wide numbers.
func TestPerLockTransferDecomposition(t *testing.T) {
	m := NewManager()
	// Lock 1: two transfers with a waiter left behind on the first.
	m.Request(0, 1, 0x40, 0)
	m.Request(1, 1, 0x40, 10)
	m.Request(2, 1, 0x40, 20)
	m.Release(0, 1, 100)
	m.Grant(1, 1, 103)
	m.Release(1, 1, 150)
	m.Grant(2, 1, 151)
	m.Release(2, 1, 200)
	// Lock 2: one transfer.
	m.Request(0, 2, 0x80, 0)
	m.Request(1, 2, 0x80, 5)
	m.Release(0, 2, 50)
	m.Grant(1, 2, 54)
	m.Release(1, 2, 90)

	per := m.PerLock()
	l1, l2 := per[1], per[2]
	if l1.Transfers != 2 || l2.Transfers != 1 {
		t.Fatalf("transfers = %d,%d; want 2,1", l1.Transfers, l2.Transfers)
	}
	if l1.WaitersAtTransfer != 1 || l2.WaitersAtTransfer != 0 {
		t.Errorf("waiters at transfer = %d,%d; want 1,0", l1.WaitersAtTransfer, l2.WaitersAtTransfer)
	}
	if l1.TransferWaitCycles != 3+1 || l2.TransferWaitCycles != 4 {
		t.Errorf("transfer wait = %d,%d; want 4,4", l1.TransferWaitCycles, l2.TransferWaitCycles)
	}
	st := m.Stats()
	sum := LockInfo{}
	for _, l := range per {
		sum.WaitersAtTransfer += l.WaitersAtTransfer
		sum.TransferWaitCycles += l.TransferWaitCycles
		sum.TransferHoldCycles += l.TransferHoldCycles
	}
	if sum.WaitersAtTransfer != st.WaitersAtTransfer ||
		sum.TransferWaitCycles != st.TransferWaitCycles ||
		sum.TransferHoldCycles != st.TransferHoldCycles {
		t.Fatalf("per-lock sums %+v do not reproduce aggregates (waiters %d, wait %d, hold %d)",
			sum, st.WaitersAtTransfer, st.TransferWaitCycles, st.TransferHoldCycles)
	}
	if got := l1.AvgTransferWait(); got != 2 {
		t.Errorf("lock 1 AvgTransferWait = %v, want 2", got)
	}
}
