package cache

// This file implements the speculation journal behind the machine's
// calendar scheduler. A Journal layers run-ahead support over one Cache:
// while a processor speculates past the global clock, every hit it performs
// is stamped with its (future) cycle and its first touch of each line is
// recorded as an undo entry, so the coordinator can
//
//   - detect a conflict: a remote bus snoop at cycle g invalidates the
//     speculation exactly when the speculating processor already probed the
//     line at a cycle after g (for a read snoop, only a later write probe
//     conflicts — later reads still hit Shared and are unaffected);
//   - apply a non-conflicting snoop late: with no probe after g touching
//     the line, the line's state at the time of application equals its
//     state at g, so the ordinary Snoop transition lands exactly where the
//     serial machine would have put it;
//   - roll back: restore every touched line, the LRU clock and the
//     statistics to the values captured at Begin, and re-announce residency
//     for lines a speculatively-applied snoop had invalidated.
//
// The journal never allocates after construction on the probe path: the
// per-line stamp array is sized once and invalidated wholesale by bumping
// an epoch counter, and the touched list is reset by reslicing.

// specLine is the journal's per-cache-line record. Stamps are valid only
// when epoch matches the journal's current epoch.
type specLine struct {
	epoch     uint64
	lastProbe uint64 // cycle of the most recent speculative probe (any kind)
	lastWrite uint64 // cycle of the most recent speculative write probe
	prevState State  // line state at first touch (always valid: only valid lines are touched)
	prevUsed  uint64 // LRU stamp at first touch
}

// Journal tracks one cache's speculative execution window.
type Journal struct {
	c       *Cache
	lines   []specLine
	touched []int32
	epoch   uint64
	// Snapshots captured by Begin, restored by Rollback.
	clock uint64
	stats Stats
	// One-line probe memo: run-ahead reference streams are strongly
	// line-local (spin reads, sequential scans), so ProbeFast remembers
	// the last line it hit and skips the set-associative scan on a
	// repeat. The memo is a guess, not an invariant: every use
	// revalidates the slot's tag and state against the probed address,
	// so it never needs invalidating — a snoop, rollback or serial fill
	// that moves the line just makes the next probe fall back to the
	// full lookup.
	memoLine uint32
	memoIdx  int32 // line index of memoLine, -1 = no memo yet
}

// NewJournal builds a journal over c. One journal serves any number of
// consecutive speculation windows on the same cache.
func NewJournal(c *Cache) *Journal {
	return &Journal{
		c:       c,
		lines:   make([]specLine, len(c.lines)),
		touched: make([]int32, 0, 64),
		epoch:   1,
		memoIdx: -1,
	}
}

// Begin opens a speculation window, snapshotting the LRU clock and the
// statistics. The previous window must have been closed by Commit or
// Rollback.
func (j *Journal) Begin() {
	j.clock = j.c.clock
	j.stats = j.c.stats
}

// Commit closes the window keeping all speculative state: the stamps are
// invalidated and the undo log discarded.
func (j *Journal) Commit() { j.reset() }

func (j *Journal) reset() {
	j.touched = j.touched[:0]
	j.epoch++
}

// findIndex locates the valid line holding addr, returning -1 on a miss.
func (c *Cache) findIndex(addr uint32) int {
	tag := addr >> c.tagShift
	base := int((addr>>c.lineShift)&c.setMask) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		if c.lines[i].state != Invalid && c.lines[i].tag == tag {
			return i
		}
	}
	return -1
}

// lineAddrAt reconstructs the line-aligned address of line index idx.
func (c *Cache) lineAddrAt(idx int) uint32 {
	setBits := uint(popcountMask(c.setMask))
	set := uint32(idx / c.assoc)
	return (c.lines[idx].tag<<setBits | set) << c.lineShift
}

// touch records the first-touch pre-image of line idx in the current
// window, returning its stamp record.
func (j *Journal) touch(idx int) *specLine {
	s := &j.lines[idx]
	if s.epoch != j.epoch {
		s.epoch = j.epoch
		s.lastProbe = 0
		s.lastWrite = 0
		ln := &j.c.lines[idx]
		s.prevState = ln.state
		s.prevUsed = ln.used
		j.touched = append(j.touched, int32(idx))
	}
	return s
}

// ProbeFast is Cache.ProbeFast for a speculating processor: identical hit
// semantics and statistics, plus conflict stamps and the first-touch undo
// record. cycle is the (speculative) cycle at which the probe happens.
func (j *Journal) ProbeFast(addr uint32, isWrite bool, cycle uint64) bool {
	c := j.c
	la := addr >> c.lineShift
	var idx int
	if j.memoIdx >= 0 && j.memoLine == la &&
		c.lines[j.memoIdx].state != Invalid && c.lines[j.memoIdx].tag == addr>>c.tagShift {
		idx = int(j.memoIdx)
	} else {
		idx = c.findIndex(addr)
		if idx < 0 {
			return false
		}
		j.memoLine, j.memoIdx = la, int32(idx)
	}
	ln := &c.lines[idx]
	if isWrite && ln.state == Shared {
		return false // needs an upgrade transaction; nothing recorded
	}
	s := j.touch(idx)
	s.lastProbe = cycle
	if isWrite {
		s.lastWrite = cycle
		c.stats.WriteHits++
		if ln.state == Exclusive {
			ln.state = Modified // silent Illinois E→M, as in ProbeFast
		}
	} else {
		c.stats.ReadHits++
	}
	c.clock++
	ln.used = c.clock
	return true
}

// Conflicts reports whether a remote snoop of op at bus cycle g
// invalidates the current speculation window. Probes at exactly g do not
// conflict: the serial machine performs the cycle's processor work before
// the cycle's bus grant.
func (j *Journal) Conflicts(addr uint32, op SnoopOp, g uint64) bool {
	idx := j.c.findIndex(addr)
	if idx < 0 {
		return false
	}
	s := &j.lines[idx]
	if s.epoch != j.epoch {
		return false
	}
	if op == SnoopRead {
		return s.lastWrite > g
	}
	return s.lastProbe > g
}

// Snoop applies a remote bus transaction through the journal: the ordinary
// Snoop transition plus the first-touch undo record, so a later rollback
// restores the line. The caller must have established (via Conflicts) that
// the application is either conflict-free or part of an in-order replay.
func (j *Journal) Snoop(addr uint32, op SnoopOp) SnoopResult {
	if idx := j.c.findIndex(addr); idx >= 0 {
		j.touch(idx)
	}
	return j.c.Snoop(addr, op)
}

// SnoopConflicts fuses Conflicts and Snoop into a single line lookup — the
// bus-side hot path for a speculating processor, called for every remote
// transaction that fans out to its cache. The returned conflict flag
// reports whether the snoop at bus cycle g invalidates the current
// speculation window (see Conflicts); the snoop itself is always applied,
// journaled for rollback.
func (j *Journal) SnoopConflicts(addr uint32, op SnoopOp, g uint64) (SnoopResult, bool) {
	c := j.c
	idx := c.findIndex(addr)
	if idx < 0 {
		return SnoopResult{}, false
	}
	conflict := false
	if s := &j.lines[idx]; s.epoch == j.epoch {
		if op == SnoopRead {
			conflict = s.lastWrite > g
		} else {
			conflict = s.lastProbe > g
		}
	}
	j.touch(idx)
	// The Snoop state transition, applied to the already-found line.
	ln := &c.lines[idx]
	res := SnoopResult{HadCopy: true, WasDirty: ln.state == Modified}
	c.stats.SnoopHits++
	switch op {
	case SnoopRead:
		res.Supplied = true
		c.stats.SnoopSupply++
		ln.state = Shared
	case SnoopReadOwn:
		res.Supplied = true
		c.stats.SnoopSupply++
		ln.state = Invalid
		c.stats.Invalidated++
	case SnoopInvalidate:
		ln.state = Invalid
		c.stats.Invalidated++
	}
	if ln.state == Invalid && c.onResident != nil {
		c.onResident(c.cfg.LineAddr(addr), false)
	}
	return res, conflict
}

// Rollback closes the window discarding all speculative state: every
// touched line, the LRU clock and the statistics return to their Begin
// values. A line that a speculatively-applied snoop invalidated is
// restored to residency, re-announced through the residency hook so the
// owning machine's holder index stays exact. (Speculation itself never
// changes residency — hits cannot fill or evict — so invalid→valid is the
// only residency transition a rollback can perform.)
func (j *Journal) Rollback() {
	c := j.c
	for _, idx := range j.touched {
		s := &j.lines[idx]
		ln := &c.lines[idx]
		if ln.state == Invalid && s.prevState != Invalid && c.onResident != nil {
			c.onResident(c.lineAddrAt(int(idx)), true)
		}
		ln.state = s.prevState
		ln.used = s.prevUsed
	}
	c.clock = j.clock
	c.stats = j.stats
	j.reset()
}
