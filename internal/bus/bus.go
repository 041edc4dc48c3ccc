// Package bus models the shared split-transaction bus of the simulated
// machine: 64 bits of multiplexed address/data, round-robin arbitration
// among the processors' cache-bus interfaces and the memory controller.
//
// The bus is a timing resource only: it tracks who holds it, for how long,
// and arbitrates fairly among requesters. What a transaction *means*
// (snooping, memory enqueues, lock hand-offs) is orchestrated by the machine
// package at grant time.
package bus

import "fmt"

// Op labels a bus transaction for statistics.
type Op uint8

const (
	// OpRead is a read-miss request sent to memory (split transaction).
	OpRead Op = iota
	// OpReadOwn is a read-for-ownership request (write miss).
	OpReadOwn
	// OpInvalidate is an upgrade invalidation (write hit on Shared).
	OpInvalidate
	// OpWriteBack transfers a dirty line to the memory input buffer.
	OpWriteBack
	// OpResponse transfers a line from the memory output buffer to a cache.
	OpResponse
	// OpCacheToCache transfers a line directly between caches (Illinois
	// supply, or a queuing-lock hand-off).
	OpCacheToCache

	numOps
)

var opNames = [numOps]string{"read", "readown", "invalidate", "writeback", "response", "c2c"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Timing holds the bus occupancy of each transaction type in cycles. The
// paper's machine moves a 16-byte line over an 8-byte-wide bus, so data
// transfers hold the bus for 2 cycles and bare requests for 1.
type Timing struct {
	Request  uint64 // address/request phase: read, RFO, invalidate
	LineData uint64 // moving one cache line across the bus
}

// DefaultTiming returns the paper's bus timing (§2.2).
func DefaultTiming() Timing { return Timing{Request: 1, LineData: 2} }

// Duration returns the bus occupancy of op under this timing.
func (t Timing) Duration(op Op) uint64 {
	switch op {
	case OpRead, OpReadOwn, OpInvalidate:
		return t.Request
	case OpWriteBack:
		// Request phase plus the dirty line's data.
		return t.Request + t.LineData
	case OpResponse:
		return t.LineData
	case OpCacheToCache:
		// The supplying cache streams the line after the request phase.
		return t.Request + t.LineData
	default:
		return t.Request
	}
}

// Stats accumulates bus-occupancy statistics.
type Stats struct {
	BusyCycles uint64
	Grants     [numOps]uint64
	// ExtraCycles is the busy time beyond each op's base duration
	// (piggybacked transfers passed through Occupy's extra argument).
	ExtraCycles uint64
}

// Count returns the number of transactions of the given op.
func (s *Stats) Count(op Op) uint64 {
	if int(op) < len(s.Grants) {
		return s.Grants[op]
	}
	return 0
}

// Total returns the total number of transactions granted.
func (s *Stats) Total() uint64 {
	var n uint64
	for _, g := range s.Grants {
		n += g
	}
	return n
}

// CheckConservation verifies the bus-cycle accounting identity: every busy
// cycle must be explained by a granted transaction's base duration under the
// given timing plus the recorded extra cycles. A mismatch means a grant was
// recorded without its occupancy (or vice versa).
func (s *Stats) CheckConservation(t Timing) error {
	var want uint64
	for op, n := range s.Grants {
		want += n * t.Duration(Op(op))
	}
	want += s.ExtraCycles
	if want != s.BusyCycles {
		return fmt.Errorf("bus: cycle conservation violated: %d busy cycles, but grants account for %d (%d extra)",
			s.BusyCycles, want, s.ExtraCycles)
	}
	return nil
}

// Utilization returns busy cycles over elapsed cycles.
func (s *Stats) Utilization(elapsed uint64) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(s.BusyCycles) / float64(elapsed)
}

// Bus is the shared bus with round-robin arbitration. Requester indices are
// assigned by the machine: 0..ncpu-1 for the processors' cache-bus
// interfaces and ncpu for the memory controller's output stage.
type Bus struct {
	timing    Timing
	nreq      int
	busyUntil uint64
	holder    int
	rrNext    int // round-robin scan start
	stats     Stats
	notify    func(freeAt uint64)
}

// New creates a bus arbitrating among nreq requesters.
func New(nreq int, timing Timing) *Bus {
	if nreq <= 0 {
		panic(fmt.Sprintf("bus: need at least one requester, got %d", nreq))
	}
	return &Bus{timing: timing, nreq: nreq, holder: -1}
}

// Notify registers a callback invoked on every Occupy with the cycle at
// which the bus becomes free again. An event-driven simulation loop uses
// it to schedule the completion wakeup instead of polling Free; nil
// disables notification.
func (b *Bus) Notify(fn func(freeAt uint64)) { b.notify = fn }

// Stats returns the running statistics.
func (b *Bus) Stats() *Stats { return &b.stats }

// Free reports whether the bus can be granted at time now.
func (b *Bus) Free(now uint64) bool { return now >= b.busyUntil }

// Holder returns the requester currently occupying the bus, or -1.
func (b *Bus) Holder(now uint64) int {
	if b.Free(now) {
		return -1
	}
	return b.holder
}

// Arbitrate grants the bus to the next ready requester in round-robin
// order, asking only the candidates that next walks. next(from) returns
// the smallest candidate index >= from, or -1 when there is none; a
// requester it never returns must not be ready (Every returns them all).
// ready(i) must report, without side effects, whether requester i has a
// grantable transaction at time now. The grant and the round-robin
// pointer then equal those of a scan of every requester. It returns the
// granted requester, or ok == false if the bus is busy or no candidate is
// ready. The caller must follow up with Occupy to start the granted
// transaction.
func (b *Bus) Arbitrate(now uint64, next func(from int) int, ready func(i int) bool) (int, bool) {
	if !b.Free(now) {
		return -1, false
	}
	// From the pointer to the last requester, then wrap around to the
	// ones below the pointer.
	start := b.rrNext
	for i := next(start); i >= 0; i = next(i + 1) {
		if ready(i) {
			return b.granted(i), true
		}
	}
	for i := next(0); i >= 0 && i < start; i = next(i + 1) {
		if ready(i) {
			return b.granted(i), true
		}
	}
	return -1, false
}

// granted moves the round-robin pointer past the granted requester i.
func (b *Bus) granted(i int) int {
	if b.rrNext = i + 1; b.rrNext >= b.nreq {
		b.rrNext = 0
	}
	return i
}

// Every is the candidate walk that offers every requester to Arbitrate: a
// full round-robin scan.
func (b *Bus) Every(from int) int {
	if from < b.nreq {
		return from
	}
	return -1
}

// Occupy starts a transaction of type op by requester at time now and
// returns the cycle at which the bus becomes free again. Extra cycles (for
// example a piggybacked lock hand-off transfer) can be added to the base
// duration.
func (b *Bus) Occupy(requester int, op Op, now, extra uint64) uint64 {
	if !b.Free(now) {
		panic(fmt.Sprintf("bus: Occupy at %d while busy until %d", now, b.busyUntil))
	}
	dur := b.timing.Duration(op) + extra
	b.busyUntil = now + dur
	b.holder = requester
	b.stats.BusyCycles += dur
	b.stats.Grants[op]++
	b.stats.ExtraCycles += extra
	if b.notify != nil {
		b.notify(b.busyUntil)
	}
	return b.busyUntil
}
