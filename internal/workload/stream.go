package workload

import (
	"fmt"

	"syncsim/internal/trace"
)

// DefaultStreamBudget is the ring's total event budget across CPUs when the
// caller passes 0: large enough that chunked producers rarely block, small
// enough that a scale-1 run stays in a few megabytes.
const DefaultStreamBudget = 1 << 16

// streamChunk is how many events a streaming generator records before it
// hands its Compact to the ring as one chunk; it bounds per-event
// synchronisation cost.
const streamChunk = 256

// streamPlan carries the ring from StreamTraces to the coordinator the
// benchmark builds. It travels inside Params (unexported) so the six
// benchmark kernels need no signature change — only the coordinator
// constructor differs.
type streamPlan struct {
	ring  *trace.RingSet
	bound bool // a coordinator picked the plan up
}

// bind points every generator of c at the plan's ring.
func (pl *streamPlan) bind(c *Coordinator) {
	pl.bound = true
	c.stream = pl
	for _, g := range c.Gens {
		g.ring = pl.ring
	}
}

// StreamHandle is the producer side of a streaming run. The consumer runs
// the simulation against the returned set, then must either Wait (after a
// complete run) or Abort (on early exit) — leaking a handle leaks a parked
// generator goroutine.
type StreamHandle struct {
	ring *trace.RingSet
	done chan error
}

// Wait blocks until the generator goroutine finishes and returns its error.
// Call it after the simulation drained the trace; a generation failure
// surfaces here even though the machine only saw a truncated stream.
func (h *StreamHandle) Wait() error {
	err := <-h.done
	h.done <- err // idempotent: later Waits see the same result
	return err
}

// Abort tells the producer to stop (its next emission panics with
// trace.ErrStreamAborted, which the driver swallows) and waits for it to
// exit. Use it when the simulation fails before draining the trace.
func (h *StreamHandle) Abort() {
	h.ring.Abort()
	h.Wait()
}

// MaxBuffered reports the ring's observed buffering high-water mark.
func (h *StreamHandle) MaxBuffered() int { return h.ring.MaxBuffered() }

// StreamTraces generates prog's trace through a bounded ring instead of
// materialising it: the generator runs in its own goroutine, hands its
// Compact records to the ring in chunks of streamChunk events, and blocks
// once budget events (0 = DefaultStreamBudget) are queued — passing the
// budget by up to one chunk, and further only while a consumer is starved
// (see trace.RingSet). A scale-1 run so executes in O(budget + skew) memory
// instead of O(trace). The event sequences are bit-identical to Generate's.
//
// The returned set's sources implement only trace.Source — no replay, no
// cloning, no speculative leases, no caching. Run the machine over the set
// once, then call Wait (or Abort on failure) on the handle.
func StreamTraces(prog Program, p Params, budget int) (*trace.Set, *StreamHandle, error) {
	p = p.WithDefaults(prog.DefaultNCPU())
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if budget <= 0 {
		budget = DefaultStreamBudget
	}
	pl := &streamPlan{ring: trace.NewRingSet(prog.Name(), p.NCPU, budget)}
	p.stream = pl
	set := pl.ring.Set()

	h := &StreamHandle{ring: pl.ring, done: make(chan error, 1)}
	go func() {
		var err error
		defer func() {
			if v := recover(); v != nil {
				if v == trace.ErrStreamAborted {
					err = trace.ErrStreamAborted // clean consumer abort
				} else {
					err = fmt.Errorf("workload %s: generator panic: %v", prog.Name(), v)
				}
			}
			pl.ring.Close(err)
			h.done <- err
		}()
		genSet, genErr := prog.Generate(p)
		if genErr != nil {
			err = genErr
			return
		}
		if !pl.bound {
			err = fmt.Errorf("workload %s: benchmark ignored the stream plan (uses NewCoordinator instead of NewCoordinatorFor)", prog.Name())
			return
		}
		_ = genSet // the ring's consumer set was returned up front
	}()
	return set, h, nil
}
