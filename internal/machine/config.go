// Package machine is the cycle-level simulator of the paper's shared-bus
// multiprocessor (§2.2): trace-driven processors, private Illinois-protocol
// caches, four-entry cache-bus interface buffers, a split-transaction bus
// with round-robin arbitration, and a buffered memory module.
//
// The machine executes a trace.Set under a chosen lock algorithm (queuing
// locks or test&test&set) and memory consistency model (sequential
// consistency or weak ordering) and produces the runtime and contention
// statistics of the paper's Tables 3-8.
package machine

import (
	"fmt"

	"syncsim/internal/bus"
	"syncsim/internal/cache"
	"syncsim/internal/locks"
	"syncsim/internal/memory"
)

// Consistency selects the memory access model implemented by the hardware.
type Consistency uint8

const (
	// SeqConsistent: every miss stalls the processor until the access is
	// performed, preserving a per-processor total order of accesses.
	SeqConsistent Consistency = iota
	// WeakOrdering: write misses and upgrades are buffered without
	// stalling; loads and instruction fetches bypass buffered writes
	// (they are placed at the front of the cache-bus buffer); at every
	// synchronisation operation the processor drains all outstanding
	// accesses before touching the synchronisation variable.
	WeakOrdering
)

func (c Consistency) String() string {
	switch c {
	case SeqConsistent:
		return "sc"
	case WeakOrdering:
		return "wo"
	default:
		return fmt.Sprintf("Consistency(%d)", uint8(c))
	}
}

// ParseConsistency returns the model whose String is name: the inverse of
// String over the defined models.
func ParseConsistency(name string) (Consistency, error) {
	for c := SeqConsistent; c <= WeakOrdering; c++ {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown cons %q (want sc or wo)", name)
}

// SchedKind selects the simulation-loop scheduler. Both schedulers are
// cycle-exact — they produce bit-identical results — and differ only in
// how they find the work of each simulated cycle.
type SchedKind uint8

const (
	// SchedCalendar (the default) drives the machine off a wakeup
	// calendar: min-heaps of component wakeup times plus a dirty set of
	// perturbed processors, so each visited cycle steps only the CPUs
	// that can act and the next cycle is a heap pop. It speculatively
	// runs each processor through its purely-local event stretches
	// (execution bursts and cache hits) ahead of the global clock,
	// committing the speculation in calendar order and rolling it back
	// when a bus snoop invalidates it; every bus transaction is still
	// ordered exactly as without speculation. The run-ahead runs inline,
	// and a run starts no goroutine. Over a source that cannot rewind (no
	// trace.Marker, such as a streamed ring) it steps every processor
	// serially. See internal/machine/lease.go and DESIGN §12 and §16.
	SchedCalendar SchedKind = iota
	// SchedPolling is the original loop: every visited cycle steps every
	// processor and rescans every component for the next event time. It
	// is the reference the scheduler-equivalence tests and fuzzers compare
	// the calendar against; no CLI flag or wire request selects it.
	SchedPolling
)

// SchedParallel is the former name of a calendar run with a worker pool.
// The pool is gone: the calendar speculates inline.
//
// Deprecated: use SchedCalendar.
const SchedParallel = SchedCalendar

func (s SchedKind) String() string {
	switch s {
	case SchedCalendar:
		return "calendar"
	case SchedPolling:
		return "polling"
	default:
		return fmt.Sprintf("SchedKind(%d)", uint8(s))
	}
}

// Config assembles the architectural parameters of a simulated machine.
type Config struct {
	Cache       cache.Config
	BusTiming   bus.Timing
	Memory      memory.Config
	BufDepth    int // cache-bus interface buffer entries (paper: 4)
	Lock        locks.Algorithm
	Consistency Consistency

	// Sched selects the run-loop scheduler; both produce identical
	// results (see SchedKind). The zero value is the calendar scheduler.
	Sched SchedKind
	// Workers once sized the calendar's speculation worker pool. The
	// calendar speculates inline, so every non-negative value runs the
	// same way; Validate still rejects a negative one.
	//
	// Deprecated: the field has no effect.
	Workers int `json:",omitempty"`

	// BackoffBase and BackoffMax bound the exponential backoff of the
	// TTSBackoff lock algorithm, in cycles. Zero values select defaults
	// (4 and 256).
	BackoffBase uint64
	BackoffMax  uint64

	// Check enables the runtime invariant checker: after every completed
	// bus transaction the machine asserts Illinois coherence across all
	// caches and buffers, bus-cycle conservation, lock mutual exclusion
	// and queuing-lock FIFO fairness, and per-CPU time monotonicity; at
	// end of run it additionally asserts reference conservation and a
	// fully drained machine. Violations abort the run with an error that
	// wraps ErrInvariant. Costs roughly half again the simulation time
	// (see BenchmarkCheckerOverhead and BENCH_seed.json).
	Check bool
	// Fault injects a deliberate protocol bug (see Fault); tests use it
	// to prove the checker and the differential harness catch real
	// coherence errors.
	Fault Fault

	// MaxCycles aborts the run as soon as the simulated clock reaches it
	// (deadlock guard): cycles 0..MaxCycles-1 may execute, and a machine
	// still incomplete at cycle MaxCycles fails exactly there. Zero means
	// no limit.
	MaxCycles uint64
	// CancelEvery is the simulation-loop iteration interval at which
	// RunCtx polls its context for cancellation or deadline expiry. The
	// check is kept off the per-cycle hot path; zero selects a coarse
	// default (8192 iterations, well under a millisecond of wall time).
	CancelEvery uint64
	// ProgressWindow aborts the run if no component makes progress for
	// this many consecutive cycles. Zero selects a generous default.
	ProgressWindow uint64
}

// DefaultConfig returns the paper's machine: 64 KB 2-way caches with
// 16-byte lines, 4-entry cache-bus buffers, split-transaction bus, 3-cycle
// memory with 2-entry buffers, queuing locks, sequential consistency.
func DefaultConfig() Config {
	return Config{
		Cache:       cache.DefaultConfig(),
		BusTiming:   bus.DefaultTiming(),
		Memory:      memory.DefaultConfig(),
		BufDepth:    4,
		Lock:        locks.Queue,
		Consistency: SeqConsistent,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if err := c.Memory.Validate(); err != nil {
		return err
	}
	if c.BufDepth <= 0 {
		return fmt.Errorf("machine: buffer depth must be positive, got %d", c.BufDepth)
	}
	if c.BusTiming.Request == 0 || c.BusTiming.LineData == 0 {
		return fmt.Errorf("machine: bus timing cycles must be positive, got %+v", c.BusTiming)
	}
	switch c.Lock {
	case locks.Queue, locks.TTS, locks.QueueExact, locks.TTSBackoff:
	default:
		return fmt.Errorf("machine: unknown lock algorithm %v", c.Lock)
	}
	switch c.Consistency {
	case SeqConsistent, WeakOrdering:
	default:
		return fmt.Errorf("machine: unknown consistency model %v", c.Consistency)
	}
	switch c.Sched {
	case SchedCalendar, SchedPolling:
	default:
		return fmt.Errorf("machine: unknown scheduler %v", c.Sched)
	}
	if c.Workers < 0 {
		return fmt.Errorf("machine: workers must be non-negative, got %d", c.Workers)
	}
	switch c.Fault {
	case FaultNone, FaultSkipInvalidate:
	default:
		return fmt.Errorf("machine: unknown fault injection %d", c.Fault)
	}
	return nil
}
