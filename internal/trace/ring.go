package trace

import (
	"errors"
	"fmt"
	"sync"
)

// ErrStreamAborted is the sentinel a RingSet's producer sees (as a panic
// from Add/AddChunk, recovered by the streaming driver) after the consumer
// side called Abort. It marks "the consumer went away", not a defect.
var ErrStreamAborted = errors.New("trace: stream aborted by consumer")

// RingSet is a bounded multi-producer-free, single-producer/multi-consumer
// ring connecting a workload generator (one goroutine emitting events for
// every CPU) to the machine simulator (one goroutine consuming per-CPU
// sources lazily). It is the streaming alternative to materialising a
// whole trace: memory stays O(budget) instead of O(trace).
//
// Backpressure: once the total number of buffered events reaches the
// budget, Add blocks the producer — unless a consumer is currently starved
// (blocked on an empty per-CPU queue). The override is what makes the
// pipeline deadlock-free: the producer emits events in virtual-time order
// while the machine consumes them in simulated-time order, and the two
// orders can diverge (a CPU stalled at a barrier stops consuming while
// others race ahead). If the producer parked on a full queue while the
// machine waited for a different CPU's next event, both would sleep
// forever. With the override the producer spills past the budget exactly
// until the starved consumer is fed, so the real bound is
// O(budget + cross-CPU skew); MaxBuffered reports the observed peak.
//
// The per-CPU sources implement ONLY Source — no Marker, Rewinder, Cloner
// or Len. A streamed trace cannot be rewound or cloned, so the machine
// detects the missing Marker and its calendar steps every processor
// serially, without speculative leases (pinned by
// TestParallelStreamingFallback), and engine.TraceCache refuses to cache it
// (CacheStats.Bypassed).
type RingSet struct {
	name   string
	budget int

	mu       sync.Mutex
	prod     sync.Cond // producer waits here when over budget
	buffered int       // events currently queued across all CPUs
	maxBuf   int       // high-water mark of buffered
	starved  int       // consumers currently blocked on an empty queue
	closed   bool
	aborted  bool
	err      error

	queues []ringQueue
}

// ringQueue is one CPU's FIFO: a slice with a head index, recycled when
// drained so steady-state allocation is zero.
type ringQueue struct {
	events  []Event
	head    int
	waiting bool      // a consumer is parked on this queue
	cond    sync.Cond // that consumer waits here
}

// NewRingSet builds a ring for ncpu processors with a total event budget
// across all CPUs. A budget below ncpu is raised to ncpu so every queue
// can hold at least one event.
func NewRingSet(name string, ncpu, budget int) *RingSet {
	if ncpu < 1 {
		panic(fmt.Sprintf("trace: NewRingSet with %d cpus", ncpu))
	}
	if budget < ncpu {
		budget = ncpu
	}
	r := &RingSet{name: name, budget: budget, queues: make([]ringQueue, ncpu)}
	r.prod.L = &r.mu
	for i := range r.queues {
		r.queues[i].cond.L = &r.mu
	}
	return r
}

// Set returns the consumer-side trace set. Its sources stream events as
// the producer emits them; they implement only Source.
func (r *RingSet) Set() *Set {
	set := &Set{Name: r.name, Sources: make([]Source, len(r.queues))}
	for i := range r.queues {
		set.Sources[i] = &ringSource{r: r, cpu: i}
	}
	return set
}

// Add appends one event to cpu's queue, blocking while the ring is over
// budget and no consumer is starved. It panics with ErrStreamAborted after
// Abort; the streaming driver recovers that sentinel at the top of the
// producer goroutine.
func (r *RingSet) Add(cpu int, ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addLocked(cpu, ev)
}

// AddChunk appends a batch in one lock acquisition; generators buffer a
// few hundred events locally so per-event lock traffic disappears.
func (r *RingSet) AddChunk(cpu int, evs []Event) {
	if len(evs) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range evs {
		r.addLocked(cpu, ev)
	}
}

func (r *RingSet) addLocked(cpu int, ev Event) {
	for r.buffered >= r.budget && !r.starvedEmptyLocked() && !r.aborted {
		r.prod.Wait()
	}
	if r.aborted {
		panic(ErrStreamAborted)
	}
	if r.closed {
		panic(fmt.Sprintf("trace: RingSet %q: Add after Close", r.name))
	}
	q := &r.queues[cpu]
	q.events = append(q.events, ev)
	r.buffered++
	if r.buffered > r.maxBuf {
		r.maxBuf = r.buffered
	}
	if q.waiting {
		q.cond.Signal()
	}
}

// starvedEmptyLocked reports whether some consumer is parked on a queue
// that is still empty — the exact condition under which the producer must
// spill past the budget: that consumer cannot make progress until the
// producer reaches its CPU's next event, and the producer's emission order
// is fixed. Once every parked consumer's queue holds an event the spill
// window closes and the budget binds again.
func (r *RingSet) starvedEmptyLocked() bool {
	if r.starved == 0 {
		return false
	}
	for i := range r.queues {
		q := &r.queues[i]
		if q.waiting && q.head >= len(q.events) {
			return true
		}
	}
	return false
}

// Close marks the stream complete (or failed, with a non-nil err): every
// consumer drains what is buffered and then sees end-of-trace. Err
// reports the error afterwards. Close after Abort keeps the abort error.
func (r *RingSet) Close(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	if r.err == nil {
		r.err = err
	}
	for i := range r.queues {
		r.queues[i].cond.Broadcast()
	}
	r.prod.Broadcast()
}

// Abort is the consumer side's "I am done early" (simulation error,
// context cancel): it unblocks and poisons the producer, whose next Add
// panics with ErrStreamAborted, and ends every source. No-op after Close.
func (r *RingSet) Abort() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.aborted {
		return
	}
	r.aborted = true
	r.err = ErrStreamAborted
	for i := range r.queues {
		r.queues[i].cond.Broadcast()
	}
	r.prod.Broadcast()
}

// Err returns the error recorded by Close or Abort, nil for a clean close
// or a still-open stream.
func (r *RingSet) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// MaxBuffered reports the high-water mark of buffered events — the
// observed O(budget + skew) bound, for diagnostics and tests.
func (r *RingSet) MaxBuffered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maxBuf
}

// Budget returns the configured event budget.
func (r *RingSet) Budget() int { return r.budget }

// take hands the entire buffered queue of one CPU to its consumer in a
// single lock acquisition (the consumer iterates it lock-free), blocking
// while the queue is empty and the stream is open. ok is false at
// end-of-stream.
func (r *RingSet) take(cpu int, reuse []Event) (evs []Event, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	q := &r.queues[cpu]
	for q.head >= len(q.events) && !r.closed && !r.aborted {
		q.waiting = true
		r.starved++
		r.prod.Signal() // the producer may proceed past the budget now
		q.cond.Wait()
		r.starved--
		q.waiting = false
	}
	if q.head >= len(q.events) {
		return nil, false
	}
	evs = q.events[q.head:]
	r.buffered -= len(evs)
	// Recycle the consumer's drained slice as the queue's next backing
	// array, so the two sides ping-pong between two allocations.
	q.events = reuse[:0]
	q.head = 0
	if r.buffered < r.budget {
		r.prod.Signal()
	}
	return evs, true
}

// ringSource adapts one CPU's queue to the Source interface. It must NOT
// implement Marker/Rewinder/Cloner/Len: streamed events are gone once
// consumed (asserted by TestSourceCapabilityMatrix).
type ringSource struct {
	r       *RingSet
	cpu     int
	pending []Event
	pos     int
	done    bool
}

// Next implements Source.
func (s *ringSource) Next() (Event, bool) {
	if s.pos < len(s.pending) {
		ev := s.pending[s.pos]
		s.pos++
		return ev, true
	}
	if s.done {
		return Event{}, false
	}
	evs, ok := s.r.take(s.cpu, s.pending)
	if !ok {
		s.done = true
		s.pending = nil
		s.pos = 0
		return Event{}, false
	}
	s.pending = evs
	s.pos = 1
	return evs[0], true
}
