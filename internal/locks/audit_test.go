package locks

import (
	"strings"
	"testing"
)

func TestRequestReleaseGrantFIFO(t *testing.T) {
	m := NewManager()
	m.EnableAudit()
	if !m.Request(0, 1, 0x100, 10) {
		t.Fatal("free lock not acquired immediately")
	}
	if m.Request(1, 1, 0x100, 12) || m.Request(2, 1, 0x100, 14) {
		t.Fatal("held lock acquired immediately")
	}
	next, has := m.Release(0, 1, 50)
	if !has || next != 1 {
		t.Fatalf("Release -> (%d, %v), want first waiter 1", next, has)
	}
	m.Grant(1, 1, 55)
	if m.Owner(1) != 1 {
		t.Fatalf("owner = %d, want 1", m.Owner(1))
	}
	next, has = m.Release(1, 1, 80)
	if !has || next != 2 {
		t.Fatalf("second Release -> (%d, %v), want waiter 2", next, has)
	}
	m.Grant(2, 1, 85)
	m.Release(2, 1, 100)
	if err := m.CheckInvariants(); err != nil {
		t.Errorf("CheckInvariants on clean run: %v", err)
	}
	if len(m.HeldLocks()) != 0 {
		t.Error("locks still held after all releases")
	}
	info := m.PerLock()[1]
	// Holds: 10->50, 55->80, 85->100 = 40+25+15.
	if info.HoldCycles != 80 {
		t.Errorf("HoldCycles = %d, want 80", info.HoldCycles)
	}
	if info.Acquisitions != 3 || info.Transfers != 2 {
		t.Errorf("per-lock counts = %+v, want 3 acqs, 2 transfers", info)
	}
}

func TestHeldLocksSorted(t *testing.T) {
	m := NewManager()
	m.Request(0, 7, 0x700, 0)
	m.Request(1, 3, 0x300, 0)
	m.Request(2, 5, 0x500, 0)
	got := m.HeldLocks()
	if len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 7 {
		t.Errorf("HeldLocks = %v, want [3 5 7]", got)
	}
}

func TestCheckLockViolations(t *testing.T) {
	m := NewManager()
	m.Request(0, 1, 0x100, 0)
	m.Request(1, 1, 0x100, 1)

	ls := m.locks[1]
	ls.waiters = append(ls.waiters, 1) // duplicate
	if err := m.CheckLock(1); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate waiter not caught: %v", err)
	}
	ls.waiters = []int{0} // owner queued on its own lock
	if err := m.CheckLock(1); err == nil || !strings.Contains(err.Error(), "owner") {
		t.Errorf("owner-as-waiter not caught: %v", err)
	}
	ls.waiters = []int{1}
	ls.handoff = true // hand-off pending while still owned
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "hand-off") {
		t.Errorf("hand-off-while-owned not caught: %v", err)
	}
	if err := m.CheckLock(99); err != nil {
		t.Errorf("CheckLock of unknown lock: %v", err)
	}
}

func TestAuditCatchesFIFOViolation(t *testing.T) {
	m := NewManager()
	m.EnableAudit()
	m.Request(0, 1, 0x100, 0)
	m.Request(1, 1, 0x100, 1)
	m.Request(2, 1, 0x100, 2)
	m.Release(0, 1, 10)
	// Corrupt the queue order behind the audit's back, as a protocol bug
	// in the machine would: cpu 2 jumps ahead of cpu 1.
	ls := m.locks[1]
	ls.waiters[0], ls.waiters[1] = ls.waiters[1], ls.waiters[0]
	m.Grant(2, 1, 12)
	err := m.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "FIFO") {
		t.Errorf("FIFO violation not caught: %v", err)
	}
}

func TestTryAcquireRaceKeepsAuditConsistent(t *testing.T) {
	m := NewManager()
	m.EnableAudit()
	m.Request(0, 1, 0x100, 0)
	m.Request(1, 1, 0x100, 1)
	m.Request(2, 1, 0x100, 2)
	m.Release(0, 1, 10)
	// T&T&S is unfair by design: cpu 2 winning the race is not a FIFO
	// violation and must not trip the audit.
	if !m.TryAcquireRace(2, 1, 12) {
		t.Fatal("race on free lock lost")
	}
	if m.TryAcquireRace(1, 1, 13) {
		t.Fatal("race on held lock won")
	}
	m.Release(2, 1, 20)
	if !m.TryAcquireRace(1, 1, 25) {
		t.Fatal("second race on free lock lost")
	}
	m.Release(1, 1, 30)
	if err := m.CheckInvariants(); err != nil {
		t.Errorf("CheckInvariants after races: %v", err)
	}
}
