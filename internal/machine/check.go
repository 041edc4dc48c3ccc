package machine

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"syncsim/internal/cache"
)

// ErrInvariant is the sentinel wrapped by every invariant-checker error, so
// callers can distinguish "the simulator is broken" from ordinary run
// failures (deadlock, MaxCycles, cancellation) with errors.Is.
var ErrInvariant = errors.New("machine: invariant violated")

// Fault selects a deliberately-injected protocol bug, used by tests to prove
// the invariant checker and the differential harness actually catch real
// coherence errors. Production configurations use FaultNone.
type Fault uint8

const (
	// FaultNone injects nothing.
	FaultNone Fault = iota
	// FaultSkipInvalidate downgrades every invalidating snoop to a plain
	// read snoop: remote copies survive writes, so a writer's Modified
	// line coexists with stale Shared copies — a textbook Illinois
	// violation — and test&test&set spinners are never woken.
	FaultSkipInvalidate
)

// fullSweepEvery is the bus-transaction interval of the checker's full
// coherence-and-locks sweep; between sweeps only the transaction's own line
// is checked, keeping the checker's cost near-linear in transactions.
const fullSweepEvery = 1024

// checker is the runtime invariant checker enabled by Config.Check. It runs
// after every completed bus transaction and once more at end of run,
// asserting the Illinois coherence invariants, bus-cycle conservation, lock
// mutual exclusion and FIFO fairness, per-CPU time monotonicity, and
// reference conservation (every buffered access completes exactly once).
type checker struct {
	m        *Machine
	txns     uint64
	lastNow  uint64
	lastBusy []uint64 // per-CPU busyUntil high-water marks
}

func newChecker(m *Machine) *checker {
	return &checker{m: m, lastBusy: make([]uint64, len(m.cpus))}
}

func invariantf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvariant}, args...)...)
}

// afterTxn validates the machine state just after transaction t completed.
func (k *checker) afterTxn(t busTxn) error {
	m := k.m
	k.txns++
	if m.now < k.lastNow {
		return invariantf("clock moved backwards: %d after %d", m.now, k.lastNow)
	}
	k.lastNow = m.now
	for i, c := range m.cpus {
		busy := c.busyUntil
		if m.par != nil && m.par.leases[i].active {
			// A leased processor's busyUntil is speculative: it can
			// legitimately retreat on rollback. The committed high-water
			// mark is the lease snapshot's.
			busy = m.par.leases[i].snap.busyUntil
		}
		if busy < k.lastBusy[i] {
			return invariantf("cpu %d busyUntil moved backwards: %d after %d",
				i, busy, k.lastBusy[i])
		}
		k.lastBusy[i] = busy
		if c.stallCause != causeNone && c.stallStart > m.now {
			return invariantf("cpu %d stall started at %d, after now %d", i, c.stallStart, m.now)
		}
	}
	if err := m.bus.Stats().CheckConservation(m.cfg.BusTiming); err != nil {
		return invariantf("%v", err)
	}
	switch t.kind {
	case txnLockRel, txnLockNotify:
		if err := m.locks.CheckLock(t.lockID); err != nil {
			return invariantf("%v", err)
		}
	}
	if err := m.checkLine(m.cfg.Cache.LineAddr(t.line)); err != nil {
		return err
	}
	if k.txns%fullSweepEvery == 0 {
		return k.sweep()
	}
	return nil
}

// checkLine asserts the Illinois invariant for one line across all caches
// and buffers: at most one cache holds the line Modified or Exclusive, an
// exclusive cache holder excludes every other valid cache copy, and at most
// one processor has a write-back of the line buffered. A buffered
// write-back may coexist with copies elsewhere: it stays queued after
// supplying a reader cache-to-cache (§2.2's snoopable buffer), so only
// cache-state duplication is a violation.
func (m *Machine) checkLine(line uint32) error {
	owners, valid, wbs := 0, 0, 0
	for _, c := range m.cpus {
		switch c.cache.Peek(line) {
		case cache.Modified, cache.Exclusive:
			owners++
			valid++
		case cache.Shared:
			valid++
		}
		if _, ok := c.buf.pendingWriteBack(line); ok {
			wbs++
		}
	}
	if owners > 1 || (owners == 1 && valid > 1) || wbs > 1 {
		return invariantf("coherence violated on line %#x: %d exclusive holders, %d valid copies, %d buffered write-backs%s",
			line, owners, valid, wbs, m.lineHolders(line))
	}
	return nil
}

func (m *Machine) lineHolders(line uint32) string {
	s := ""
	for i, c := range m.cpus {
		st := c.cache.Peek(line)
		wb := ""
		if _, ok := c.buf.pendingWriteBack(line); ok {
			wb = "+wb"
		}
		if st != cache.Invalid || wb != "" {
			s += fmt.Sprintf(" cpu%d=%v%s", i, st, wb)
		}
	}
	return s
}

// sweep runs the full periodic check: every cached or buffered line's
// coherence plus the lock manager's structural and fairness invariants.
func (k *checker) sweep() error {
	m := k.m
	lines := make(map[uint32]struct{})
	for _, c := range m.cpus {
		c.cache.ForEachLine(func(addr uint32, st cache.State) {
			lines[addr] = struct{}{}
		})
		for i := range c.buf.entries {
			if c.buf.entries[i].kind == entWriteBack {
				lines[c.buf.entries[i].line] = struct{}{}
			}
		}
	}
	for line := range lines {
		if err := m.checkLine(line); err != nil {
			return err
		}
	}
	if err := k.checkHolderIndex(); err != nil {
		return err
	}
	if err := m.locks.CheckInvariants(); err != nil {
		return invariantf("%v", err)
	}
	return nil
}

// checkHolderIndex validates the machine's derived coherence bookkeeping
// against ground truth: the line→holders index must match exactly what the
// caches hold, and the buffered write-back count must match the buffers.
// Both are pure accelerators for the snoop paths, so any drift here means
// snoops could be skipped and the simulation silently diverge.
func (k *checker) checkHolderIndex() error {
	m := k.m
	wbs := 0
	for _, c := range m.cpus {
		for i := range c.buf.entries {
			if c.buf.entries[i].kind == entWriteBack {
				wbs++
			}
		}
	}
	if wbs != m.wbPending {
		return invariantf("write-back count drifted: index says %d, buffers hold %d", m.wbPending, wbs)
	}
	want := make(map[uint32]cpuSet, m.holders.lenLive())
	for i, c := range m.cpus {
		c.cache.ForEachLine(func(addr uint32, st cache.State) {
			set, ok := want[addr]
			if !ok {
				set = newCPUSet(len(m.cpus))
				want[addr] = set
			}
			set.add(i)
		})
	}
	if len(want) != m.holders.lenLive() {
		return invariantf("holder index drifted: %d lines indexed, %d resident", m.holders.lenLive(), len(want))
	}
	for line, set := range want {
		got, count := m.holders.get(line), m.holders.count(line)
		n := 0
		for _, w := range set {
			n += bits.OnesCount64(w)
		}
		if !slices.Equal(got, set) || count != n {
			return invariantf("holder index drifted on line %#x: indexed %#x (count %d), resident %#x%s",
				line, got, count, set, m.lineHolders(line))
		}
	}
	return nil
}

// final validates the quiescent end-of-run state: every resource drained,
// no lock leaked, and reference conservation — every buffer entry ever
// allocated was pushed and completed exactly once.
func (k *checker) final() error {
	m := k.m
	if m.txn.active {
		return invariantf("run finished with a bus transaction in flight")
	}
	// Queued memory *writes* may legitimately outlive the processors
	// (write-backs drain after retirement); a pending *response* means a
	// fill lost its requester.
	if m.mem.HasResponse() {
		return invariantf("run finished with a memory response nobody is waiting for")
	}
	if len(m.lineBusy) > 0 {
		return invariantf("run finished with %d lines awaiting memory fills", len(m.lineBusy))
	}
	var removed uint64
	for i, c := range m.cpus {
		if c.state != stDone {
			return invariantf("cpu %d finished in state %v", i, c.state)
		}
		if !c.buf.empty() {
			return invariantf("cpu %d finished with %d buffered accesses", i, len(c.buf.entries))
		}
		if c.hasReplay {
			return invariantf("cpu %d finished with a deferred trace event", i)
		}
		if c.finish > m.now {
			return invariantf("cpu %d finish time %d is after the clock %d", i, c.finish, m.now)
		}
		removed += c.buf.removed
	}
	if removed != m.entryID {
		return invariantf("reference conservation violated: %d buffer entries allocated, %d completed",
			m.entryID, removed)
	}
	if held := m.locks.HeldLocks(); len(held) > 0 {
		return invariantf("run finished with locks still held: %v", held)
	}
	for id, b := range m.barriers {
		if len(b.waiting) > 0 {
			return invariantf("run finished with %d processors waiting at barrier %d", len(b.waiting), id)
		}
	}
	if err := m.bus.Stats().CheckConservation(m.cfg.BusTiming); err != nil {
		return invariantf("%v", err)
	}
	return k.sweep()
}
