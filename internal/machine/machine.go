package machine

import (
	"context"
	"fmt"
	"math/bits"

	"syncsim/internal/bus"
	"syncsim/internal/cache"
	"syncsim/internal/locks"
	"syncsim/internal/memory"
	"syncsim/internal/trace"
)

// txnKind labels the in-flight bus transaction for completion dispatch.
type txnKind uint8

const (
	// txnMemReq: request phase of a split read; enqueue at memory on end.
	txnMemReq txnKind = iota
	// txnC2C: cache-to-cache line transfer; fill the requester on end.
	txnC2C
	// txnInval: upgrade invalidation; apply the upgrade on end.
	txnInval
	// txnWB: write-back transfer; enqueue the write at memory on end.
	txnWB
	// txnResp: memory response transfer; fill the requester on end.
	txnResp
	// txnLockRel: queuing-lock release write, optionally extended with
	// the hand-off transfer; release (and grant) the lock on end.
	txnLockRel
	// txnLockNotify: the exact queuing lock's post-release write to the
	// next waiter's spin location; trigger the waiter's re-read on end.
	txnLockNotify
)

// busTxn is the single transaction occupying the (serial) bus.
type busTxn struct {
	active    bool
	kind      txnKind
	start     uint64
	at        uint64 // completion time
	cpu       int
	entryID   uint64
	line      uint32
	fillState cache.State
	lockID    uint32
	peer      int // txnLockNotify: the waiter being notified
}

type barrierState struct {
	waiting  []int
	episodes uint64
}

// Machine is one simulated shared-bus multiprocessor executing one trace
// set. Build it with New and drive it to completion with Run.
type Machine struct {
	cfg  Config
	name string

	cpus  []*cpu
	bus   *bus.Bus
	mem   *memory.Memory
	locks *locks.Manager

	barriers map[uint32]*barrierState
	lineBusy map[uint32]int // lines with an outstanding memory fill

	// holders indexes line address → set of processors whose cache holds
	// it, maintained through each cache's residency Notify hook. It lets
	// applySnoops and hasSupplier visit only actual holders instead of
	// probing every cache per transaction.
	holders *holderTable
	// snoopSet is applySnoops' private copy of a line's holder set.
	snoopSet cpuSet
	// sharedSnoops counts, per processor, the read snoops the calendar
	// answered for its cache without visiting it (snoopShared). Each is
	// one snoop hit and one supply, folded into the cache statistics by
	// result(). It lives outside the processors and their caches so that a
	// lease's snapshot and rollback never touch it.
	sharedSnoops []uint64
	// wbPending counts write-back entries across all cache-bus buffers.
	// Zero (the common case) skips the per-processor pending-write-back
	// scans in applySnoops and hasSupplier. It may transiently include
	// in-flight write-backs, which only costs an unnecessary scan.
	wbPending int
	// occupied holds the processors whose cache-bus buffer is non-empty:
	// the only processors that can win arbitration. The calendar offers
	// the bus to these alone (nextCandidate), and with none of them and no
	// queued memory response both run loops skip arbitration outright.
	occupied cpuSet
	// nDone counts processors that have retired their trace (entered
	// stDone, which no state ever leaves), making allDone O(1).
	nDone int

	txn       busTxn
	entryID   uint64
	now       uint64
	droppedWB uint64
	// lockErr, once set, ends the run after the current phase-B sweep:
	// a trace broke a lock rule (see ErrLockMisuse).
	lockErr error

	// sched is the wakeup calendar; nil under SchedPolling, in which case
	// every scheduler hook is a no-op and the original loop runs.
	sched *scheduler
	// spec is the calendar's speculative executor (leases and journals);
	// nil under SchedPolling or when a source cannot rewind. See lease.go.
	spec      *speculator
	iters     uint64 // visited simulation cycles
	steps     uint64 // cpu step() invocations
	leased    uint64 // steps run under a committed lease
	rollbacks uint64 // leases rolled back by a conflicting snoop

	// heartbeat, when non-nil, is fed at every cancellation poll (see
	// WithHeartbeat). Set by RunCtx from its context.
	heartbeat func(iterations uint64)

	checker *checker // non-nil when Config.Check is set
}

// New builds a machine for the given trace set.
func New(set *trace.Set, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if set.NCPU() == 0 {
		return nil, fmt.Errorf("machine: trace set %q has no processors", set.Name)
	}
	m := &Machine{
		cfg:      cfg,
		name:     set.Name,
		bus:      bus.New(set.NCPU()+1, cfg.BusTiming), // +1: memory controller
		mem:      memory.New(cfg.Memory),
		locks:    locks.NewManager(),
		barriers: make(map[uint32]*barrierState),
		lineBusy: make(map[uint32]int),
	}
	m.holders = newHolderTable(set.NCPU())
	m.snoopSet = newCPUSet(set.NCPU())
	m.sharedSnoops = make([]uint64, set.NCPU())
	m.occupied = newCPUSet(set.NCPU())
	for i, src := range set.Sources {
		c := &cpu{
			id:    i,
			src:   src,
			cache: cache.New(cfg.Cache),
			buf:   newBuffer(cfg.BufDepth),
			state: stFetch,
		}
		c.buf.wbPending = &m.wbPending
		c.buf.occupied, c.buf.id = m.occupied, i
		c.cache.Notify(func(line uint32, resident bool) {
			if resident {
				m.holders.or(line, i)
			} else {
				m.holders.clear(line, i)
			}
		})
		m.cpus = append(m.cpus, c)
	}
	if cfg.Check {
		m.checker = newChecker(m)
		m.locks.EnableAudit()
	}
	if cfg.Sched != SchedPolling {
		m.sched = newScheduler(len(m.cpus))
		// Event registration: the bus and the memory module announce
		// completion times as transactions start, replacing the polling
		// loop's per-iteration NextEventAt/Free scans.
		m.bus.Notify(m.sched.pushTime)
		m.mem.Notify(m.sched.pushTime)
		// The speculative executor needs rewindable sources (to replay a
		// rolled-back speculation). Without them every processor takes
		// the calendar's lease-free serial step — results are identical
		// by construction, only the execution strategy differs.
		m.spec = newSpeculator(m)
	}
	return m, nil
}

func (m *Machine) nextEntryID() uint64 {
	m.entryID++
	return m.entryID
}

// memRequester is the bus-requester index of the memory controller.
func (m *Machine) memRequester() int { return len(m.cpus) }

// Run simulates the machine to completion and returns the results.
func Run(set *trace.Set, cfg Config) (*Result, error) {
	return RunCtx(context.Background(), set, cfg)
}

// RunCtx simulates the machine to completion, polling ctx for cancellation
// at a coarse iteration interval (Config.CancelEvery) so long runs can be
// cancelled or deadlined without per-cycle overhead.
func RunCtx(ctx context.Context, set *trace.Set, cfg Config) (*Result, error) {
	m, err := New(set, cfg)
	if err != nil {
		return nil, err
	}
	return m.RunCtx(ctx)
}

// Run drives the machine until every processor has retired its trace.
func (m *Machine) Run() (*Result, error) { return m.RunCtx(context.Background()) }

// heartbeatKey carries a liveness callback through a context; see
// WithHeartbeat.
type heartbeatKey struct{}

// WithHeartbeat returns a context carrying a liveness heartbeat: RunCtx
// invokes fn(iterations so far) at every cancellation poll — once per
// Config.CancelEvery visited cycles — from the simulation goroutine.
// External watchdogs use the beats to tell a long-but-advancing run from a
// wedged one and abort the latter by cancelling the job's context, without
// adding anything to the per-cycle hot path. fn must be cheap and must not
// block.
func WithHeartbeat(ctx context.Context, fn func(iterations uint64)) context.Context {
	return context.WithValue(ctx, heartbeatKey{}, fn)
}

// heartbeatFrom extracts the heartbeat callback, if any.
func heartbeatFrom(ctx context.Context) func(uint64) {
	fn, _ := ctx.Value(heartbeatKey{}).(func(uint64))
	return fn
}

// Beat invokes the heartbeat carried by ctx, if any. Executors other than
// the machine loop (test stubs, alternative back ends) call it to feed
// the same watchdogs the real simulator feeds.
func Beat(ctx context.Context, iterations uint64) {
	if fn := heartbeatFrom(ctx); fn != nil {
		fn(iterations)
	}
}

// RunCtx drives the machine until every processor has retired its trace or
// ctx is done, whichever comes first. Cancellation returns a wrapped
// ctx.Err() (errors.Is-able against context.Canceled / DeadlineExceeded).
// A heartbeat installed with WithHeartbeat is fed at the same cadence as
// the cancellation poll.
func (m *Machine) RunCtx(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("machine: %s cancelled at cycle %d: %w", m.name, m.now, err)
	}
	m.heartbeat = heartbeatFrom(ctx)
	var err error
	if m.sched != nil {
		err = m.runCalendar(ctx)
	} else {
		err = m.runPolling(ctx)
	}
	if err != nil {
		return nil, err
	}
	if m.checker != nil {
		if err := m.checker.final(); err != nil {
			return nil, err
		}
	}
	return m.result(), nil
}

// progressWindow returns the effective no-progress abort threshold.
func (m *Machine) progressWindow() uint64 {
	const defaultProgressWindow = 1 << 20
	if m.cfg.ProgressWindow == 0 {
		return defaultProgressWindow
	}
	return m.cfg.ProgressWindow
}

// cancelEvery returns the effective cancellation polling interval.
func (m *Machine) cancelEvery() uint64 {
	if m.cfg.CancelEvery == 0 {
		return 1 << 13
	}
	return m.cfg.CancelEvery
}

// maxCyclesErr builds the MaxCycles abort error. The bound is inclusive:
// the clock reaching MaxCycles without completion is the failure, and no
// work executes at or beyond it.
func (m *Machine) maxCyclesErr() error {
	return fmt.Errorf("machine: %s reached MaxCycles=%d at cycle %d: %s",
		m.name, m.cfg.MaxCycles, m.now, m.stateDump())
}

// clampToMaxCycles caps a clock advance at the MaxCycles bound so the
// guard trips exactly at the configured cycle even when the next event
// lies beyond it.
func (m *Machine) clampToMaxCycles(next uint64) uint64 {
	if m.cfg.MaxCycles > 0 && next > m.cfg.MaxCycles {
		return m.cfg.MaxCycles
	}
	return next
}

// runPolling is the original main loop: every visited cycle steps every
// processor and rescans every component for the next event time. It is
// retained for differential testing against the calendar scheduler
// (TestSchedulerEquivalence) and remains selectable via SchedPolling.
func (m *Machine) runPolling(ctx context.Context) error {
	window := m.progressWindow()
	checkEvery := m.cancelEvery()
	idleIters := uint64(0)
	sinceCheck := uint64(0)
	// Hoisted: a method value allocates per evaluation.
	ready, every := m.ready, m.bus.Every
	for {
		if m.allDone() {
			break
		}
		if sinceCheck++; sinceCheck >= checkEvery {
			sinceCheck = 0
			if m.heartbeat != nil {
				m.heartbeat(m.iters)
			}
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("machine: %s cancelled at cycle %d: %w", m.name, m.now, err)
			}
		}
		if m.cfg.MaxCycles > 0 && m.now >= m.cfg.MaxCycles {
			return m.maxCyclesErr()
		}
		m.iters++
		progress := false

		// Phase A: complete the bus transaction ending now; advance the
		// memory pipeline.
		if m.txn.active && m.now >= m.txn.at {
			t := m.txn
			m.completeTxn()
			if m.checker != nil {
				if err := m.checker.afterTxn(t); err != nil {
					return err
				}
			}
			progress = true
		}
		m.mem.Tick(m.now)

		// Phase B: let every processor consume trace events. A processor
		// made progress if its state changed or it started a new
		// execution burst (busyUntil strictly advances, so run→run
		// transitions across an event fetch are still caught).
		for _, c := range m.cpus {
			before := c.state
			beforeBusy := c.busyUntil
			m.steps++
			m.step(c, m.now)
			if c.state != before || c.busyUntil != beforeBusy {
				progress = true
			}
		}
		if m.lockErr != nil {
			return m.lockErr
		}

		// Phase C: arbitration, asking every requester in turn. With every
		// buffer empty and no queued memory response there is no possible
		// grantee, and a grantless Arbitrate leaves no trace (rrNext only
		// moves on a grant), so the scan is skipped outright.
		if !m.occupied.empty() || m.mem.HasResponse() {
			if granted, ok := m.bus.Arbitrate(m.now, every, ready); ok {
				m.grant(granted)
				progress = true
			}
		}

		if progress {
			idleIters = 0
		} else {
			idleIters++
			if idleIters > window {
				return fmt.Errorf("machine: %s made no progress for %d iterations at cycle %d (deadlock?): %s",
					m.name, idleIters, m.now, m.stateDump())
			}
		}

		next, ok := m.nextTime()
		if !ok {
			if m.allDone() {
				break
			}
			return fmt.Errorf("machine: %s deadlocked at cycle %d: %s", m.name, m.now, m.stateDump())
		}
		m.now = m.clampToMaxCycles(next)
	}
	return nil
}

// runCalendar is the main loop of the calendar scheduler: a
// wakeup calendar with the lease discipline of lease.go layered into
// phase B. Each visited cycle runs the same three phases as runPolling, but
// phase B visits only CPUs that are dirty (perturbed at this cycle by a
// completed transaction, snoop, lock grant or barrier release) or due (a
// timed wakeup arrived), and the next visited cycle is a heap pop instead of
// an O(P) rescan. A processor with nothing global pending runs ahead under
// a lease and is visited again only where it needs the bus; without an
// executor (a source that cannot rewind) every visit is a plain serial
// step. See sched.go for why the calendar is cycle-exact and lease.go for
// why the leases are.
func (m *Machine) runCalendar(ctx context.Context) error {
	s := m.sched
	window := m.progressWindow()
	checkEvery := m.cancelEvery()
	idleIters := uint64(0)
	sinceCheck := uint64(0)
	// Hoisted: a method value allocates per evaluation.
	ready, next := m.ready, m.nextCandidate

	// Every processor starts in stFetch and must consume its first trace
	// events at cycle 0.
	for id := range m.cpus {
		s.mark(id)
	}

	for {
		if m.allDone() {
			break
		}
		if sinceCheck++; sinceCheck >= checkEvery {
			sinceCheck = 0
			if m.heartbeat != nil {
				m.heartbeat(m.iters)
			}
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("machine: %s cancelled at cycle %d: %w", m.name, m.now, err)
			}
		}
		if m.cfg.MaxCycles > 0 && m.now >= m.cfg.MaxCycles {
			return m.maxCyclesErr()
		}
		m.iters++
		progress := false
		// Drain next-cycle wakeups scheduled for this cycle and re-arm the
		// fast path before any phase runs: phase A and C wakes all target
		// now+1 and must land in the fresh set.
		s.startCycle(m.now)

		// Phase A: complete the bus transaction ending now; advance the
		// memory pipeline. Transaction completion marks the perturbed
		// CPUs dirty; the memory module registers its own completion
		// wakeup through the Notify hook inside Tick. Neither can target
		// a leased processor (no buffered entries, no blocked states).
		if m.txn.active && m.now >= m.txn.at {
			t := m.txn
			m.completeTxn()
			if m.checker != nil {
				if err := m.checker.afterTxn(t); err != nil {
					return err
				}
			}
			progress = true
		}
		m.mem.Tick(m.now)

		// Phase B: visit only dirty or due processors, in index order —
		// the same order the polling loop's full sweep visits them, which
		// matters when a step releases a barrier mid-sweep. The cursor
		// walk keeps the full scan's carry-over: a step that marks a
		// higher index is caught later this sweep, one that marks a lower
		// (or its own) index keeps the mark and is visited at now+1,
		// exactly as the polling loop would.
		s.drainDue(m.now)
		if s.ndirty > 0 {
			for id := s.dirty.next(0); id >= 0; id = s.dirty.next(id + 1) {
				s.unmark(id)
				m.sweepCPU(id, &progress)
			}
			if m.lockErr != nil {
				return m.lockErr
			}
			if s.ndirty > 0 {
				s.pushTime(m.now + 1)
			}
		}

		// Phase C: arbitration among the candidates only, skipped when
		// there are none (see runPolling). A successful grant schedules
		// the bus-free wakeup through the bus Notify hook inside Occupy.
		if !m.occupied.empty() || m.mem.HasResponse() {
			if granted, ok := m.bus.Arbitrate(m.now, next, ready); ok {
				m.grant(granted)
				progress = true
			}
		}

		if progress {
			idleIters = 0
		} else {
			idleIters++
			if idleIters > window {
				return fmt.Errorf("machine: %s made no progress for %d iterations at cycle %d (deadlock?): %s",
					m.name, idleIters, m.now, m.stateDump())
			}
		}

		next, ok := s.nextAfter(m.now)
		if !ok {
			if m.allDone() {
				break
			}
			return fmt.Errorf("machine: %s deadlocked at cycle %d: %s", m.name, m.now, m.stateDump())
		}
		m.now = m.clampToMaxCycles(next)
	}
	return nil
}

func (m *Machine) allDone() bool { return m.nDone == len(m.cpus) }

// nextTime computes the earliest future cycle at which anything can happen.
func (m *Machine) nextTime() (uint64, bool) {
	best := uint64(0)
	have := false
	consider := func(t uint64) {
		if t <= m.now {
			t = m.now + 1
		}
		if !have || t < best {
			best, have = t, true
		}
	}
	if m.txn.active {
		consider(m.txn.at)
	}
	if at, ok := m.mem.NextEventAt(); ok {
		consider(at)
	}
	if m.mem.HasResponse() {
		consider(m.now + 1)
	}
	for _, c := range m.cpus {
		switch c.state {
		case stRun:
			consider(c.busyUntil)
		case stFetch, stBufWait:
			consider(m.now + 1)
		case stTTSSpin:
			if c.ttsReread {
				consider(m.now + 1)
			}
		case stTTSBackoff:
			consider(c.busyUntil)
		case stDrain, stFinishing:
			if c.buf.empty() {
				consider(m.now + 1)
			}
		}
		// Issuable buffer entries wait for the bus, covered by txn.at;
		// if the bus is free and something is issuable, arbitration
		// happens next iteration.
		if m.bus.Free(m.now + 1) {
			if _, ok := c.buf.issuable(); ok {
				consider(m.now + 1)
			}
		}
	}
	return best, have
}

// nextCandidate is the calendar's candidate walk for bus.Arbitrate: the
// processors with a non-empty cache-bus buffer in ascending order, then
// the memory controller when it has a response queued. Every requester it
// skips has nothing to issue, so ready would refuse it.
func (m *Machine) nextCandidate(from int) int {
	if id := m.occupied.next(from); id >= 0 {
		return id
	}
	if from <= m.memRequester() && m.mem.HasResponse() {
		return m.memRequester()
	}
	return -1
}

// ready reports whether bus requester i has a grantable transaction now.
// It has no side effects, which lets the calendar ask only candidates.
func (m *Machine) ready(i int) bool {
	if i == m.memRequester() {
		return m.mem.HasResponse()
	}
	c := m.cpus[i]
	e, ok := c.buf.issuable()
	if !ok {
		return false
	}
	switch e.kind {
	case entRead, entReadOwn:
		line := e.line
		// len check first: the map is empty whenever no memory miss is in
		// flight, and a map lookup costs far more than the guard.
		if len(m.lineBusy) != 0 && m.lineBusy[line] > 0 {
			return false // pending-miss conflict: wait for the response
		}
		// Grantable if memory can take the request OR a cache can supply;
		// check the O(1) memory test first — the O(P) supplier scan only
		// decides admission when the memory input buffer is full. (grant
		// re-derives the actual supplier by snooping either way.)
		if m.mem.CanAccept() {
			return true
		}
		return m.hasSupplier(i, line)
	case entUpgrade:
		return true
	case entWriteBack, entLockAcquire, entLockRelease, entLockNotify:
		return m.mem.CanAccept()
	default:
		panic(fmt.Sprintf("machine: unknown entry kind %v", e.kind))
	}
}

// hasSupplier reports whether any other processor's cache or pending
// write-back holds the line (Illinois supplies cache-to-cache even when
// clean; buffered dirty lines are coherence-visible).
func (m *Machine) hasSupplier(requester int, line uint32) bool {
	if m.holders.heldByOther(line, requester) {
		return true
	}
	if m.wbPending == 0 {
		return false
	}
	for j, c := range m.cpus {
		if j == requester {
			continue
		}
		if _, ok := c.buf.pendingWriteBack(line); ok {
			return true
		}
	}
	return false
}

// applySnoops broadcasts a transaction's address to every other cache,
// performing the Illinois transitions, waking test&test&set spinners whose
// copy is killed, and handling buffered dirty copies. It reports whether a
// supplier exists.
func (m *Machine) applySnoops(requester int, line uint32, op cache.SnoopOp) (supplied bool) {
	if m.cfg.Fault == FaultSkipInvalidate {
		op = cache.SnoopRead
	}
	n, set := m.holders.lookup(line)
	if op == cache.SnoopRead && n >= 2 && m.sched != nil && m.cfg.Fault == FaultNone {
		m.snoopShared(requester, line, set)
		supplied = true // by a holder other than the requester
	} else {
		supplied = m.snoopHolders(requester, line, set, op)
	}
	if m.wbPending != 0 {
		for j, c := range m.cpus {
			if j == requester {
				continue
			}
			if wb, ok := c.buf.pendingWriteBack(line); ok {
				supplied = true
				if op == cache.SnoopReadOwn {
					// Ownership moves to the requester; the queued
					// write-back is superseded.
					c.buf.remove(wb)
					// The freed slot may unblock a buffer-full retry or
					// complete a drain at the next cycle.
					if m.sched != nil {
						m.sched.wake(j, m.now+1)
					}
				}
			}
		}
	}
	return supplied
}

// snoopHolders applies the snoop to each cache in set, the line's holders,
// other than the requester's.
func (m *Machine) snoopHolders(requester int, line uint32, set cpuSet, op cache.SnoopOp) (supplied bool) {
	invalidating := op != cache.SnoopRead
	// Snoop only the caches that hold the line, in ascending processor
	// order. The holder set is copied out before the walk: invalidations
	// prune the line's entry through the residency hook while the loop
	// runs, and a leased processor's rollback re-announces residency,
	// which can insert lines and rehash the table under a live view.
	holders := m.snoopSet
	copy(holders, set)
	holders.remove(requester)
	for w, mask := range holders {
		for ; mask != 0; mask &= mask - 1 {
			j := w<<6 + bits.TrailingZeros64(mask)
			c := m.cpus[j]
			res := m.snoopCache(j, line, op)
			if res.HadCopy {
				supplied = true
				if invalidating && c.state == stTTSSpin &&
					m.cfg.Cache.LineAddr(c.ttsLockAddr) == line {
					c.ttsReread = true
					// Snoops run at grant time, after this cycle's phase
					// B, so the spinner re-tests at the next cycle — as
					// the polling loop's full sweep would.
					if m.sched != nil {
						m.sched.wake(j, m.now+1)
					}
				}
			}
		}
	}
	return supplied
}

// snoopShared answers the calendar's read snoop of a line that two or more
// caches hold without visiting any of them. Under Illinois such a line is
// Shared in every holder, and a read snoop leaves a Shared line as it was:
// no state, LRU or residency change, and nothing a leased holder's
// speculation could conflict with or need replayed (DESIGN §16.2). What
// remains is each holder's statistics — one snoop hit and one supply
// apiece, counted in sharedSnoops. set is a view into the holder index,
// which nothing here changes. The polling loop keeps the per-holder walk
// as the reference, and so does a run with an injected fault, which breaks
// the invariant on purpose.
func (m *Machine) snoopShared(requester int, line uint32, set cpuSet) {
	for w, mask := range set {
		for ; mask != 0; mask &= mask - 1 {
			if j := w<<6 + bits.TrailingZeros64(mask); j != requester {
				m.sharedSnoops[j]++
			}
		}
	}
	if m.checker != nil {
		m.checker.sharedRead(requester, line, set)
	}
}

// grant starts the transaction of the chosen requester on the bus.
func (m *Machine) grant(i int) {
	if i == m.memRequester() {
		resp := m.mem.PopResponse()
		if m.sched != nil {
			// The freed output slot can unblock an access stalled inside
			// the memory module; its retirement happens on the next tick.
			m.sched.pushTime(m.now + 1)
		}
		end := m.bus.Occupy(i, bus.OpResponse, m.now, 0)
		m.txn = busTxn{
			active: true, kind: txnResp, start: m.now, at: end,
			cpu: resp.CPU, entryID: resp.Tag, line: resp.Addr,
		}
		return
	}
	c := m.cpus[i]
	e, ok := c.buf.issuable()
	if !ok {
		panic("machine: grant to requester with nothing issuable")
	}
	switch e.kind {
	case entRead, entReadOwn:
		op := cache.SnoopRead
		if e.kind == entReadOwn {
			op = cache.SnoopReadOwn
		}
		supplied := m.applySnoops(i, e.line, op)
		e.inFlight = true
		if supplied {
			fill := cache.Shared
			if e.kind == entReadOwn {
				fill = cache.Modified
			}
			end := m.bus.Occupy(i, bus.OpCacheToCache, m.now, 0)
			m.txn = busTxn{
				active: true, kind: txnC2C, start: m.now, at: end,
				cpu: i, entryID: e.id, line: e.line, fillState: fill,
			}
			return
		}
		busOp := bus.OpRead
		if e.kind == entReadOwn {
			busOp = bus.OpReadOwn
		}
		end := m.bus.Occupy(i, busOp, m.now, 0)
		m.lineBusy[e.line]++
		m.txn = busTxn{
			active: true, kind: txnMemReq, start: m.now, at: end,
			cpu: i, entryID: e.id, line: e.line,
		}

	case entUpgrade:
		m.applySnoops(i, e.line, cache.SnoopInvalidate)
		e.inFlight = true
		end := m.bus.Occupy(i, bus.OpInvalidate, m.now, 0)
		m.txn = busTxn{
			active: true, kind: txnInval, start: m.now, at: end,
			cpu: i, entryID: e.id, line: e.line,
		}

	case entWriteBack:
		e.inFlight = true
		end := m.bus.Occupy(i, bus.OpWriteBack, m.now, 0)
		m.txn = busTxn{
			active: true, kind: txnWB, start: m.now, at: end,
			cpu: i, entryID: e.id, line: e.line,
		}

	case entLockAcquire:
		// The acquire's atomic exchange is a memory round trip, like a
		// read request, but it does not fill the cache.
		e.inFlight = true
		end := m.bus.Occupy(i, bus.OpRead, m.now, 0)
		m.txn = busTxn{
			active: true, kind: txnMemReq, start: m.now, at: end,
			cpu: i, entryID: e.id, line: e.line,
		}

	case entLockNotify:
		e.inFlight = true
		// Invalidate the waiter's cached spin location (it spins on a
		// private word; the releaser's write kills that copy).
		m.applySnoops(i, e.line, cache.SnoopInvalidate)
		end := m.bus.Occupy(i, bus.OpRead, m.now, 0)
		m.txn = busTxn{
			active: true, kind: txnLockNotify, start: m.now, at: end,
			cpu: i, entryID: e.id, line: e.line, lockID: e.lockID,
			peer: e.peer,
		}

	case entLockRelease:
		e.inFlight = true
		handoff := m.locks.Waiters(e.lockID) > 0
		if m.cfg.Lock == locks.QueueExact {
			// The exact protocol has no piggybacked hand-off transfer;
			// the release is a bare memory write and the hand-off costs
			// a separate notify write plus the waiter's re-read.
			handoff = false
		}
		busOp := bus.OpRead
		if handoff {
			// Piggyback the cache-to-cache hand-off to the first
			// waiter on the release transaction.
			busOp = bus.OpCacheToCache
		}
		end := m.bus.Occupy(i, busOp, m.now, 0)
		m.txn = busTxn{
			active: true, kind: txnLockRel, start: m.now, at: end,
			cpu: i, entryID: e.id, line: e.line, lockID: e.lockID,
		}

	default:
		panic(fmt.Sprintf("machine: grant of unknown entry kind %v", e.kind))
	}
}

// completeTxn applies the effects of the transaction that just left the bus.
func (m *Machine) completeTxn() {
	t := m.txn
	m.txn.active = false
	c := m.cpus[t.cpu]
	if m.sched != nil {
		// The owning processor's buffer or scheduling state changes in
		// every branch below; step it this cycle. Peers perturbed by lock
		// hand-offs are marked by grantLock and the notify path.
		m.sched.mark(t.cpu)
	}
	switch t.kind {
	case txnMemReq:
		if _, ok := c.buf.byID(t.entryID); !ok {
			panic("machine: memory request for vanished entry")
		}
		m.mem.Enqueue(memory.Request{
			Kind: memory.ReqRead, Addr: t.line, CPU: t.cpu, Tag: t.entryID,
		})

	case txnC2C:
		e, ok := c.buf.byID(t.entryID)
		if !ok {
			panic("machine: c2c fill for vanished entry")
		}
		m.fillLine(c, t.line, t.fillState)
		m.completeEntry(c, e)

	case txnInval:
		e, ok := c.buf.byID(t.entryID)
		if !ok {
			panic("machine: invalidation for vanished entry")
		}
		if !c.cache.Upgrade(t.line) {
			// Lost the line to a racing remote write between probe and
			// invalidation: retry as a read-for-ownership.
			e.kind = entReadOwn
			e.inFlight = false
			return
		}
		m.completeEntry(c, e)

	case txnWB:
		e, ok := c.buf.byID(t.entryID)
		if !ok {
			// The write-back was superseded by a remote RFO while the
			// transfer was on the bus; nothing to deliver.
			return
		}
		m.mem.Enqueue(memory.Request{Kind: memory.ReqWrite, Addr: t.line, CPU: t.cpu})
		c.buf.remove(e)

	case txnResp:
		e, ok := c.buf.byID(t.entryID)
		if !ok {
			panic("machine: response for vanished entry")
		}
		switch e.kind {
		case entLockAcquire:
			if e.purpose == purQEAcquire1 {
				// First of the exact enqueue's two memory accesses:
				// reissue the same entry for the second round trip.
				e.purpose = purNormal
				e.inFlight = false
				return
			}
			id, addr := e.lockID, e.line
			c.buf.remove(e)
			if m.locks.Request(t.cpu, id, addr, m.now) {
				c.endStall(m.now)
				c.state = stFetch
			} else {
				c.state = stWaitGrant
			}
		case entRead:
			m.lineBusy[t.line]--
			if m.lineBusy[t.line] <= 0 {
				delete(m.lineBusy, t.line)
			}
			m.fillLine(c, t.line, cache.Exclusive)
			m.completeEntry(c, e)
		case entReadOwn:
			m.lineBusy[t.line]--
			if m.lineBusy[t.line] <= 0 {
				delete(m.lineBusy, t.line)
			}
			m.fillLine(c, t.line, cache.Modified)
			m.completeEntry(c, e)
		default:
			panic(fmt.Sprintf("machine: response for entry kind %v", e.kind))
		}

	case txnLockRel:
		e, ok := c.buf.byID(t.entryID)
		if !ok {
			panic("machine: lock release for vanished entry")
		}
		m.mem.Enqueue(memory.Request{Kind: memory.ReqWrite, Addr: t.line, CPU: t.cpu})
		id := e.lockID
		c.buf.remove(e)
		// The lock word's new value hits the bus at the end of the
		// request phase; the hand-off transfer rides the same tenure.
		releaseAt := t.start + m.cfg.BusTiming.Request
		next, has := m.locks.Release(t.cpu, id, releaseAt)
		if has && m.cfg.Lock == locks.QueueExact {
			// The exact protocol pays a separate notify write to the
			// waiter's spin location before the hand-off completes.
			if !c.buf.full() {
				// The notify write's coherence action is per cache line:
				// normalise through LineAddr, like the waiter's respin
				// read below, so the snoop kills the cached spin copy
				// even when lines are wider than the spin stride.
				c.buf.push(entry{
					id: m.nextEntryID(), kind: entLockNotify,
					line: m.cfg.Cache.LineAddr(spinAddr(next)), lockID: id, peer: next,
					blocking: true,
				})
				c.state = stStall // releaser waits for its notify write
				return
			}
			// Buffer-full corner: fall back to an immediate grant.
		}
		if has {
			m.grantLock(next, id)
		}
		c.endStall(m.now)
		c.state = stFetch

	case txnLockNotify:
		e, ok := c.buf.byID(t.entryID)
		if !ok {
			panic("machine: lock notify for vanished entry")
		}
		m.mem.Enqueue(memory.Request{Kind: memory.ReqWrite, Addr: t.line, CPU: t.cpu})
		id := e.lockID
		peer := e.peer
		c.buf.remove(e)
		// Releaser proceeds; the waiter must now re-read its spin
		// location (a fresh miss) before it owns the lock.
		c.endStall(m.now)
		c.state = stFetch
		w := m.cpus[peer]
		if w.state != stWaitGrant {
			panic(fmt.Sprintf("machine: notify for cpu %d in state %v", peer, w.state))
		}
		if w.buf.full() {
			// Corner: no room for the re-read; grant directly.
			m.grantLock(peer, id)
			return
		}
		w.buf.push(entry{
			id: m.nextEntryID(), kind: entRead, purpose: purQERespin,
			line: m.cfg.Cache.LineAddr(spinAddr(peer)), lockID: id,
			blocking: true,
		})
	}
}

// fillLine installs a line, handling the rare case where the fill itself
// evicts a dirty victim (two outstanding fills to one set under weak
// ordering): the victim's write-back is queued if space permits, otherwise
// its bus traffic is dropped and counted.
func (m *Machine) fillLine(c *cpu, line uint32, st cache.State) {
	victim, evicted := c.cache.Fill(line, st)
	if evicted && victim.Dirty {
		if !c.buf.full() {
			c.buf.push(entry{id: m.nextEntryID(), kind: entWriteBack, line: victim.Addr})
		} else {
			m.droppedWB++
		}
	}
}

// completeEntry removes a finished entry and resumes or continues whatever
// was waiting on it.
func (m *Machine) completeEntry(c *cpu, e *entry) {
	pur := e.purpose
	blocking := e.blocking
	lockID := e.lockID
	c.buf.remove(e)
	switch pur {
	case purNormal:
		if blocking {
			c.endStall(m.now)
			c.state = stFetch
		}
	case purReplay:
		c.endStall(m.now)
		c.state = stFetch // the deferred event replays from here
	case purTTSTest:
		m.ttsEvaluate(c, m.now)
	case purTTSSet:
		m.ttsResolve(c, m.now)
	case purTTSRelease:
		m.locks.Release(c.id, lockID, m.now)
		c.endStall(m.now)
		c.state = stFetch
	case purQERespin:
		// The spin location's new value arrived: the waiter owns the
		// lock.
		m.grantLock(c.id, lockID)
	default:
		panic(fmt.Sprintf("machine: unknown entry purpose %d", pur))
	}
}

// grantLock hands a queuing lock to a waiting processor and resumes it.
func (m *Machine) grantLock(cpuID int, lockID uint32) {
	m.locks.Grant(cpuID, lockID, m.now)
	if m.sched != nil {
		m.sched.mark(cpuID) // the grantee resumes fetching this cycle
	}
	w := m.cpus[cpuID]
	if w.state != stWaitGrant && w.state != stStall {
		panic(fmt.Sprintf("machine: granting lock %d to cpu %d in state %v", lockID, cpuID, w.state))
	}
	w.endStall(m.now)
	w.state = stFetch
}

// spinAddr is the exact queuing lock's per-processor spin location: each
// processor spins on its own cache line (Graunke-Thakkar), in a region
// above the lock words.
func spinAddr(cpu int) uint32 {
	return 0xF800_0000 + uint32(cpu)*64
}

// stateDump renders a compact diagnostic of every processor for deadlock
// reports.
func (m *Machine) stateDump() string {
	s := ""
	for _, c := range m.cpus {
		s += fmt.Sprintf("[cpu%d %v buf=%d", c.id, c.state, len(c.buf.entries))
		if held := m.locks.HeldBy(c.id); len(held) > 0 {
			s += fmt.Sprintf(" holds=%v", held)
		}
		s += "] "
	}
	if m.txn.active {
		s += fmt.Sprintf("txn{kind=%d cpu=%d at=%d} ", m.txn.kind, m.txn.cpu, m.txn.at)
	}
	return s
}

// result assembles the final Result.
func (m *Machine) result() *Result {
	res := &Result{
		Name:              m.name,
		Config:            m.cfg,
		CPUs:              make([]CPUResult, len(m.cpus)),
		Bus:               *m.bus.Stats(),
		Memory:            *m.mem.Stats(),
		Locks:             *m.locks.Stats(),
		LockDetails:       m.locks.PerLock(),
		LocksHeld:         m.locks.HeldLocks(),
		DroppedWriteBacks: m.droppedWB,
		Sched: SchedStats{
			Iterations: m.iters, Steps: m.steps,
			LeasedSteps: m.leased, Rollbacks: m.rollbacks,
		},
	}
	for _, b := range m.barriers {
		res.BarrierEpisodes += b.episodes
	}
	for i, c := range m.cpus {
		res.CPUs[i] = CPUResult{
			WorkCycles:   c.workCycles,
			FinishTime:   c.finish,
			StallMiss:    c.stallMiss,
			StallLock:    c.stallLock,
			StallBarrier: c.stallBarrier,
			StallDrain:   c.stallDrain,
			Refs:         c.refs,
			LockOps:      c.lockOps,
			Cache:        *c.cache.Stats(),
		}
		res.CPUs[i].Cache.SnoopHits += m.sharedSnoops[i]
		res.CPUs[i].Cache.SnoopSupply += m.sharedSnoops[i]
		if c.finish > res.RunTime {
			res.RunTime = c.finish
		}
	}
	return res
}
