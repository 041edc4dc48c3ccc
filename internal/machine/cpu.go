package machine

import (
	"errors"
	"fmt"

	"syncsim/internal/cache"
	"syncsim/internal/locks"
	"syncsim/internal/trace"
)

// cpuState is the scheduling state of one simulated processor.
type cpuState uint8

const (
	// stFetch: ready to consume the next trace event (or replay one).
	stFetch cpuState = iota
	// stRun: executing; wakes when the clock reaches busyUntil.
	stRun
	// stStall: blocked on a buffer entry completing (miss, upgrade, or a
	// queuing-lock access).
	stStall
	// stBufWait: wants to start an access but the cache-bus buffer is
	// full; retries when an entry completes.
	stBufWait
	// stWaitGrant: queued on a queuing lock; wakes on Grant.
	stWaitGrant
	// stTTSSpin: spinning on a cached copy of a test&test&set lock word;
	// wakes when the copy is invalidated.
	stTTSSpin
	// stTTSBackoff: delaying before re-testing after a failed test&set
	// (the TTSBackoff algorithm); wakes at busyUntil.
	stTTSBackoff
	// stDrain: weak ordering, waiting for the buffer to empty before a
	// synchronisation operation; the pending event is then replayed.
	stDrain
	// stBarrier: waiting for all processors to join a barrier.
	stBarrier
	// stFinishing: trace exhausted; waiting for buffered accesses to
	// complete before retiring.
	stFinishing
	// stDone: finished.
	stDone
)

var cpuStateNames = [...]string{
	"fetch", "run", "stall", "bufwait", "waitgrant", "ttsspin", "ttsbackoff",
	"drain", "barrier", "finishing", "done",
}

func (s cpuState) String() string {
	if int(s) < len(cpuStateNames) {
		return cpuStateNames[s]
	}
	return fmt.Sprintf("cpuState(%d)", uint8(s))
}

// stallCause buckets stall cycles the way the paper's Table 3 reports them.
type stallCause uint8

const (
	causeNone stallCause = iota
	// causeMiss: waiting for a cache miss (or a full buffer).
	causeMiss
	// causeLock: anything between starting a lock operation and finishing
	// it — the acquire access, queue/spin waiting, and the release.
	causeLock
	// causeBarrier: waiting at a barrier.
	causeBarrier
	// causeDrain: weak ordering's pre-synchronisation buffer drain.
	causeDrain
)

// ttsContinuation identifies which test&test&set step to re-run after a
// buffer-full wait.
type ttsContinuation uint8

const (
	ttsContNone ttsContinuation = iota
	ttsContTest
	ttsContRelease
)

// cpu is the per-processor simulation state.
type cpu struct {
	id    int
	src   trace.Source
	cache *cache.Cache
	buf   *buffer

	state     cpuState
	busyUntil uint64

	// Event replay: when set, step processes replayEv before pulling the
	// next event from the source.
	hasReplay bool
	replayEv  trace.Event

	// TTS protocol state for the lock acquisition in progress.
	ttsLockID     uint32
	ttsLockAddr   uint32
	ttsRegistered bool
	ttsReread     bool            // spin copy invalidated; re-test needed
	ttsCont       ttsContinuation // buffer-full retry continuation
	ttsDelay      uint64          // current exponential-backoff delay

	// Stall accounting.
	stallCause stallCause
	stallStart uint64

	// Results.
	workCycles   uint64
	finish       uint64
	stallMiss    uint64
	stallLock    uint64
	stallBarrier uint64
	stallDrain   uint64
	refs         uint64
	lockOps      uint64
}

func (c *cpu) beginStall(cause stallCause, now uint64) {
	if c.stallCause != causeNone {
		return // keep the outer cause (e.g. a miss inside a lock wait)
	}
	c.stallCause = cause
	c.stallStart = now
}

func (c *cpu) endStall(now uint64) {
	switch c.stallCause {
	case causeNone:
		return
	case causeMiss:
		c.stallMiss += now - c.stallStart
	case causeLock:
		c.stallLock += now - c.stallStart
	case causeBarrier:
		c.stallBarrier += now - c.stallStart
	case causeDrain:
		c.stallDrain += now - c.stallStart
	}
	c.stallCause = causeNone
}

// step advances one processor at time now until it blocks, starts
// executing, or finishes. It is the trace-event interpreter: cache hits are
// free (their cost is inside the Exec cycle counts, as in MPTrace), misses
// and lock operations go through the machine's buffers and bus.
func (m *Machine) step(c *cpu, now uint64) {
	for {
		switch c.state {
		case stRun:
			if now < c.busyUntil {
				return
			}
			c.state = stFetch

		case stFetch:
			ev, ok := c.nextEvent()
			if !ok {
				c.state = stFinishing
				continue
			}
			if !m.processEvent(c, ev, now) {
				return // blocked; the event's continuation is queued
			}

		case stTTSSpin:
			if !c.ttsReread {
				return
			}
			c.ttsReread = false
			if m.cfg.Lock == locks.TTSBackoff && c.ttsDelay > 0 {
				// Back off before re-testing (Anderson's remedy for
				// the flurry).
				c.busyUntil = now + c.ttsDelay
				c.state = stTTSBackoff
				return
			}
			if !m.ttsTest(c, now) {
				return
			}

		case stTTSBackoff:
			if now < c.busyUntil {
				return
			}
			if !m.ttsTest(c, now) {
				return
			}

		case stDrain:
			if !c.buf.empty() {
				return
			}
			c.endStall(now)
			c.state = stFetch

		case stBufWait:
			// Retry the pending work now that space may exist.
			switch c.ttsCont {
			case ttsContTest:
				c.ttsCont = ttsContNone
				if !m.ttsTest(c, now) {
					return
				}
				c.state = stFetch
			case ttsContRelease:
				c.ttsCont = ttsContNone
				if !m.ttsReleaseRetry(c, now) {
					return
				}
				c.state = stFetch
			default:
				c.state = stFetch
			}

		case stFinishing:
			if !c.buf.empty() {
				return
			}
			c.endStall(now)
			c.state = stDone
			c.finish = now
			m.nDone++ // the only transition into stDone; allDone counts these
			return

		case stStall, stWaitGrant, stBarrier, stDone:
			return

		default:
			panic(fmt.Sprintf("machine: cpu %d in unknown state %v", c.id, c.state))
		}
	}
}

func (c *cpu) nextEvent() (trace.Event, bool) {
	if c.hasReplay {
		c.hasReplay = false
		return c.replayEv, true
	}
	return c.src.Next()
}

// deferEvent parks ev for re-processing (buffer-full retry or drain).
func (c *cpu) deferEvent(ev trace.Event) {
	if c.hasReplay {
		panic(fmt.Sprintf("machine: cpu %d deferring two events", c.id))
	}
	c.hasReplay = true
	c.replayEv = ev
}

// ErrLockMisuse is wrapped by the error a run ends with when a processor's
// trace releases a lock it does not hold or acquires a lock it already
// holds, the two per-processor lock rules trace.Validate states. Traces
// built in code or streamed reach the machine unvalidated, so the machine
// checks these rules itself as each lock event is processed.
var ErrLockMisuse = errors.New("machine: trace misuses a lock")

// misuseLock records the lock rule c's trace broke; the run loops end the
// run with it once the current sweep completes. It returns false, leaving
// the processor where it stopped.
func (m *Machine) misuseLock(c *cpu, now uint64, format string, id uint32) bool {
	if m.lockErr == nil {
		m.lockErr = fmt.Errorf("%w: %s: cpu %d at cycle %d: "+format, ErrLockMisuse, m.name, c.id, now, id)
	}
	return false
}

// processEvent interprets one trace event. It returns true if the processor
// can continue consuming events at the same cycle, false if it blocked.
func (m *Machine) processEvent(c *cpu, ev trace.Event, now uint64) bool {
	switch ev.Kind {
	case trace.KindExec:
		c.workCycles += uint64(ev.Arg)
		c.busyUntil = now + uint64(ev.Arg)
		c.state = stRun
		return false

	case trace.KindIFetch, trace.KindRead, trace.KindWrite:
		if ev.Arg > 0 {
			// Fused form: execute the preceding instructions' cycles,
			// then replay the bare reference.
			c.workCycles += uint64(ev.Arg)
			c.busyUntil = now + uint64(ev.Arg)
			ref := ev
			ref.Arg = 0
			c.deferEvent(ref)
			c.state = stRun
			return false
		}
		return m.access(c, ev, ev.Kind == trace.KindWrite, now)

	case trace.KindLock:
		if m.locks.Owner(ev.Arg) == c.id {
			return m.misuseLock(c, now, "lock %d acquired while already held (self-deadlock)", ev.Arg)
		}
		if m.cfg.Consistency == WeakOrdering && !c.buf.empty() {
			c.beginStall(causeDrain, now)
			c.deferEvent(ev)
			c.state = stDrain
			return false
		}
		c.beginStall(causeLock, now)
		if m.cfg.Lock.IsQueue() {
			return m.queueLockAcquire(c, ev, now)
		}
		c.lockOps++
		c.ttsLockID = ev.Arg
		c.ttsLockAddr = ev.Addr
		c.ttsRegistered = false
		c.ttsDelay = 0
		return m.ttsTest(c, now)

	case trace.KindUnlock:
		if m.locks.Owner(ev.Arg) != c.id {
			return m.misuseLock(c, now, "unlock of lock %d which it does not hold", ev.Arg)
		}
		if m.cfg.Consistency == WeakOrdering && !c.buf.empty() {
			c.beginStall(causeDrain, now)
			c.deferEvent(ev)
			c.state = stDrain
			return false
		}
		c.beginStall(causeLock, now)
		if m.cfg.Lock.IsQueue() {
			return m.queueLockRelease(c, ev, now)
		}
		return m.ttsRelease(c, ev, now)

	case trace.KindBarrier:
		if m.cfg.Consistency == WeakOrdering && !c.buf.empty() {
			c.beginStall(causeDrain, now)
			c.deferEvent(ev)
			c.state = stDrain
			return false
		}
		return m.barrierJoin(c, ev.Arg, now)

	case trace.KindEnd:
		c.state = stFinishing
		return false

	default:
		panic(fmt.Sprintf("machine: cpu %d invalid trace event kind %v", c.id, ev.Kind))
	}
}

// slotsNeeded estimates, without touching cache statistics, how many buffer
// entries an access to addr will need: 0 for a sure hit, 1 for an upgrade
// or a clean-victim miss, 2 for a miss that evicts a dirty victim. The
// estimate lets the processor check for buffer space before Probe runs, so
// buffer-full retries never double-count hit/miss statistics.
func (c *cpu) slotsNeeded(addr uint32, isWrite bool) int {
	switch c.cache.Peek(addr) {
	case cache.Modified, cache.Exclusive:
		return 0
	case cache.Shared:
		if isWrite {
			return 1 // upgrade
		}
		return 0
	default: // miss
		if victim, will := c.cache.WillEvict(addr); will && victim.Dirty {
			return 2
		}
		return 1
	}
}

func (c *cpu) hasSpace(n int) bool { return len(c.buf.entries)+n <= c.buf.depth }

// reserveSlots reports whether an access to a can be issued now. When the
// access needs more slots than the whole buffer has (a dirty-victim miss
// against a single-entry buffer), the victim's write-back is pushed alone
// so that a later retry finds a free way and fits; returning false always
// means "wait for buffer drain and retry".
func (m *Machine) reserveSlots(c *cpu, a uint32, isWrite bool) bool {
	need := c.slotsNeeded(a, isWrite)
	if need <= c.buf.depth {
		return c.hasSpace(need)
	}
	if c.buf.empty() {
		if victim, did := c.cache.EvictFor(a); did && victim.Dirty {
			c.buf.push(entry{id: m.nextEntryID(), kind: entWriteBack, line: victim.Addr})
		}
	}
	return false
}

// access handles a data or instruction reference. Returns true when the
// access completed without blocking the processor.
func (m *Machine) access(c *cpu, ev trace.Event, isWrite bool, now uint64) bool {
	line := m.cfg.Cache.LineAddr(ev.Addr)

	// Merge with an outstanding fill of the same line: the access waits
	// for that fill and is then replayed (it will usually hit).
	if e, ok := c.buf.pendingFill(line); ok {
		if e.purpose != purNormal {
			panic("machine: merge onto entry with a lock continuation")
		}
		e.blocking = true
		e.purpose = purReplay
		c.deferEvent(ev)
		c.beginStall(causeMiss, now)
		c.state = stStall
		return false
	}

	// Sure hits (the common case) complete in one cache lookup: no buffer
	// space is needed and no statistics can double-count.
	if c.cache.ProbeFast(ev.Addr, isWrite) {
		c.refs++
		return true
	}

	if !m.reserveSlots(c, ev.Addr, isWrite) {
		m.bufferWait(c, ev, now)
		return false
	}

	// The reference is committed past this point: deferred retries above
	// re-enter access and must not have counted it yet, or replays would
	// double-count (a bug the oracle diff caught).
	c.refs++
	res := c.cache.Probe(ev.Addr, isWrite)
	switch res.Need {
	case cache.NeedNone:
		return true // hit: free, its cost is in the Exec cycles

	case cache.NeedUpgrade:
		blocking := m.cfg.Consistency == SeqConsistent
		c.buf.push(entry{
			id: m.nextEntryID(), kind: entUpgrade, line: line, blocking: blocking,
		})
		if blocking {
			c.beginStall(causeMiss, now)
			c.state = stStall
			return false
		}
		return true

	case cache.NeedRead, cache.NeedReadOwn:
		kind := entRead
		if res.Need == cache.NeedReadOwn {
			kind = entReadOwn
		}
		if victim, did := c.cache.EvictFor(ev.Addr); did && victim.Dirty {
			c.buf.push(entry{id: m.nextEntryID(), kind: entWriteBack, line: victim.Addr})
		}
		blocking := isWrite && m.cfg.Consistency == SeqConsistent || !isWrite
		fill := entry{id: m.nextEntryID(), kind: kind, line: line, blocking: blocking}
		if !isWrite && m.cfg.Consistency == WeakOrdering {
			// §4.1: loads and instruction fetches bypass buffered
			// writes — place the miss at the front of the buffer.
			c.buf.pushFront(fill)
		} else {
			c.buf.push(fill)
		}
		if blocking {
			c.beginStall(causeMiss, now)
			c.state = stStall
			return false
		}
		return true
	}
	panic("machine: unreachable access need")
}

// bufferWait parks the processor until buffer space frees up.
func (m *Machine) bufferWait(c *cpu, ev trace.Event, now uint64) {
	c.deferEvent(ev)
	c.beginStall(causeMiss, now)
	c.state = stBufWait
}

// queueLockAcquire starts the queuing-lock acquire: a single memory round
// trip to the lock word (the atomic exchange that enqueues the processor).
func (m *Machine) queueLockAcquire(c *cpu, ev trace.Event, now uint64) bool {
	if c.buf.full() {
		m.bufferWait(c, ev, now)
		return false
	}
	c.lockOps++
	pur := purNormal
	if m.cfg.Lock == locks.QueueExact {
		// True Graunke-Thakkar: the enqueue's atomic exchange takes two
		// memory accesses (the paper's approximation uses one).
		pur = purQEAcquire1
	}
	c.buf.push(entry{
		id: m.nextEntryID(), kind: entLockAcquire, purpose: pur,
		line: ev.Addr, lockID: ev.Arg, blocking: true,
	})
	c.state = stStall
	return false
}

// queueLockRelease starts the queuing-lock release: a memory write to the
// lock word, extended on the bus with a cache-to-cache hand-off when a
// processor is waiting.
func (m *Machine) queueLockRelease(c *cpu, ev trace.Event, now uint64) bool {
	if c.buf.full() {
		m.bufferWait(c, ev, now)
		return false
	}
	c.lockOps++
	c.buf.push(entry{
		id: m.nextEntryID(), kind: entLockRelease,
		line: ev.Addr, lockID: ev.Arg, blocking: true,
	})
	c.state = stStall
	return false
}

// ttsTest performs the "test" of test&test&set: read the lock word through
// the cache. Returns true only if the whole acquisition completed at this
// cycle (cached hit on a free lock with an already-owned line).
func (m *Machine) ttsTest(c *cpu, now uint64) bool {
	if !m.reserveSlots(c, c.ttsLockAddr, false) {
		return m.ttsBufferWait(c, ttsContTest, now)
	}
	res := c.cache.Probe(c.ttsLockAddr, false)
	if res.Need == cache.NeedNone {
		return m.ttsEvaluate(c, now)
	}
	// Miss: fetch the lock line, then evaluate.
	return m.ttsIssueLockLine(c, entRead, purTTSTest, now)
}

// ttsBufferWait parks a test&test&set continuation until buffer space
// frees. The continuation re-runs the test (or release) from scratch, which
// is safe: testing is idempotent and the waiter registration is guarded by
// ttsRegistered.
func (m *Machine) ttsBufferWait(c *cpu, cont ttsContinuation, now uint64) bool {
	c.ttsCont = cont
	c.beginStall(causeLock, now)
	c.state = stBufWait
	return false
}

// ttsIssueLockLine queues a fill/upgrade of the lock line with the given
// continuation purpose. The caller has already checked buffer space. Lock
// operations always block the processor.
func (m *Machine) ttsIssueLockLine(c *cpu, kind entryKind, pur purpose, now uint64) bool {
	line := m.cfg.Cache.LineAddr(c.ttsLockAddr)
	if kind != entUpgrade {
		if victim, did := c.cache.EvictFor(c.ttsLockAddr); did && victim.Dirty {
			c.buf.push(entry{id: m.nextEntryID(), kind: entWriteBack, line: victim.Addr})
		}
	}
	c.buf.push(entry{
		id: m.nextEntryID(), kind: kind, purpose: pur,
		line: line, lockID: c.ttsLockID, blocking: true,
	})
	c.state = stStall
	return false
}

// ttsEvaluate inspects the lock after a test read: free → attempt test&set;
// held → register as a waiter and spin on the cached copy.
func (m *Machine) ttsEvaluate(c *cpu, now uint64) bool {
	if m.locks.Owner(c.ttsLockID) == locks.NoOwner {
		// Attempt the test&set: an atomic write of the lock word.
		if !m.reserveSlots(c, c.ttsLockAddr, true) {
			return m.ttsBufferWait(c, ttsContTest, now)
		}
		res := c.cache.Probe(c.ttsLockAddr, true)
		switch res.Need {
		case cache.NeedNone:
			// Write hit on M/E: performed immediately.
			return m.ttsResolve(c, now)
		case cache.NeedUpgrade:
			return m.ttsIssueLockLine(c, entUpgrade, purTTSSet, now)
		default:
			return m.ttsIssueLockLine(c, entReadOwn, purTTSSet, now)
		}
	}
	// Locked: spin on the cached copy (no bus traffic) until invalidated.
	if !c.ttsRegistered {
		m.locks.Request(c.id, c.ttsLockID, c.ttsLockAddr, now)
		c.ttsRegistered = true
	}
	c.state = stTTSSpin
	return false
}

// ttsResolve resolves a completed test&set write: the processor wins if the
// lock was still free, otherwise it goes back to spinning.
func (m *Machine) ttsResolve(c *cpu, now uint64) bool {
	if m.locks.TryAcquireRace(c.id, c.ttsLockID, now) {
		c.ttsRegistered = false
		c.ttsDelay = 0
		c.endStall(now)
		c.state = stFetch
		return true
	}
	if m.cfg.Lock == locks.TTSBackoff {
		base, max := m.cfg.BackoffBase, m.cfg.BackoffMax
		if base == 0 {
			base = 4
		}
		if max == 0 {
			max = 256
		}
		if c.ttsDelay == 0 {
			c.ttsDelay = base
		} else if c.ttsDelay*2 <= max {
			c.ttsDelay *= 2
		}
	}
	if !c.ttsRegistered {
		m.locks.Request(c.id, c.ttsLockID, c.ttsLockAddr, now)
		c.ttsRegistered = true
	}
	c.state = stTTSSpin
	return false
}

// ttsRelease performs the test&test&set release: a normal write of the lock
// word. A hit on an owned line releases immediately and silently; a Shared
// hit needs the invalidation that triggers the spinners' re-read flurry.
func (m *Machine) ttsRelease(c *cpu, ev trace.Event, now uint64) bool {
	c.lockOps++
	c.ttsLockID = ev.Arg
	c.ttsLockAddr = ev.Addr
	return m.ttsReleaseRetry(c, now)
}

// ttsReleaseRetry (re)attempts the release write of the lock word stored in
// the cpu's TTS fields.
func (m *Machine) ttsReleaseRetry(c *cpu, now uint64) bool {
	if !m.reserveSlots(c, c.ttsLockAddr, true) {
		return m.ttsBufferWait(c, ttsContRelease, now)
	}
	res := c.cache.Probe(c.ttsLockAddr, true)
	switch res.Need {
	case cache.NeedNone:
		m.locks.Release(c.id, c.ttsLockID, now)
		c.endStall(now)
		return true
	case cache.NeedUpgrade:
		return m.ttsIssueLockLine(c, entUpgrade, purTTSRelease, now)
	default:
		return m.ttsIssueLockLine(c, entReadOwn, purTTSRelease, now)
	}
}

// barrierJoin adds the processor to a barrier episode, releasing everyone
// when the last processor arrives.
func (m *Machine) barrierJoin(c *cpu, id uint32, now uint64) bool {
	b := m.barriers[id]
	if b == nil {
		b = &barrierState{}
		m.barriers[id] = b
	}
	b.waiting = append(b.waiting, c.id)
	if len(b.waiting) == len(m.cpus) {
		// Last arrival: release everybody at this cycle.
		for _, id := range b.waiting {
			w := m.cpus[id]
			w.endStall(now)
			w.state = stFetch
			if m.sched != nil && id != c.id {
				// Released waiters after the arriving processor in index
				// order are stepped later in this cycle's sweep; earlier
				// ones keep their mark and step at now+1 — matching the
				// polling loop's single in-order sweep.
				m.sched.mark(id)
			}
		}
		b.waiting = b.waiting[:0]
		b.episodes++
		// The releasing cpu continues in its own step loop.
		return true
	}
	c.beginStall(causeBarrier, now)
	c.state = stBarrier
	return false
}
