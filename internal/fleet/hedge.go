package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"syncsim/internal/api"
	"syncsim/internal/client"
	"syncsim/internal/server"
)

// This file is the coordinator's cell execution core: a hedged race along
// the cell's ring-order candidates, run under the cell single-flight (a
// flight.Group keyed on the cell's canonical cache key, see runCell).
//
// The two layers compose into the first-wins merge rule: the flight
// guarantees at most one race per cell key is deciding at a time (a
// hedge can never cause two executions of one cell to both reach a
// merge), and the race guarantees exactly one backend's payload is
// accepted — whichever answers first — with every other attempt
// cancelled. Double execution on two backends is harmless for *bytes*
// (the simulator is deterministic per cell), so the flight is not what
// makes results correct; it is what keeps a hedge from doubling load
// and what lets concurrent identical requests share one answer.

// attemptOutcome is one backend attempt's result inside a race.
type attemptOutcome struct {
	backend string
	hedged  bool // launched by a latency budget, not by a failure
	payload *api.SimPayload
	err     error
}

// hedgeBudget is the latency budget before a speculative attempt is
// issued past backend: the backend's windowed p95 when the digest has
// enough samples (clamped below by HedgeMin so a cache-hit-fast p95
// cannot trigger hedge storms), else the static HedgeAfter fallback.
func (c *Coordinator) hedgeBudget(backend string) time.Duration {
	if p95, ok := c.pool.LatencyP95(backend); ok {
		if p95 < c.cfg.HedgeMin {
			return c.cfg.HedgeMin
		}
		return p95
	}
	return c.cfg.HedgeAfter
}

// raceCell runs one cell over its candidate backends: candidates[0] is
// attempted immediately; whenever the live attempt outlasts its hedge
// budget, the next candidate is speculatively attempted in parallel
// (counted as hedged); whenever an attempt fails retryably with nothing
// else in flight, the next candidate is attempted immediately (the
// failover path). The first successful answer wins and every other
// attempt is cancelled; a terminal answer fails the cell at once.
func (c *Coordinator) raceCell(ctx context.Context, plan server.SimPlan, candidates []string) (*api.SimPayload, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the losers the moment a winner returns

	outcomes := make(chan attemptOutcome, len(candidates))
	next, inflight := 0, 0
	// Counter semantics: routed = primary launches, retried =
	// failure-driven failover launches, hedged = speculative launches.
	// A hedge is not a retry — nothing failed — so the three are disjoint.
	launch := func(hedged bool) {
		b := candidates[next]
		next++
		inflight++
		switch {
		case next == 1:
			c.statsFor(b).routed.inc()
		case hedged:
			c.hedged.inc()
			c.statsFor(b).hedged.inc()
		default:
			c.statsFor(b).retried.inc()
		}
		go func() {
			payload, err := c.attemptCell(ctx, b, plan)
			outcomes <- attemptOutcome{backend: b, hedged: hedged, payload: payload, err: err}
		}()
	}
	launch(false)

	var last error
	for inflight > 0 {
		// Arm the hedge timer only while another candidate is available
		// and hedging is on. The budget restarts at each event; that is
		// deliberate — a failover launch deserves a full budget of its
		// own before the next speculation.
		var hedgeAt <-chan time.Time
		if c.cfg.HedgeAfter >= 0 && next < len(candidates) {
			t := time.NewTimer(c.hedgeBudget(candidates[next-1]))
			hedgeAt = t.C
			defer t.Stop()
		}
		select {
		case out := <-outcomes:
			inflight--
			if out.err == nil {
				// Same disjointness on the win side: a hedge that answers
				// first is a hedge_win; failed_over means a failure pushed
				// the cell off its primary.
				switch {
				case out.hedged:
					c.hedgeWins.inc()
				case out.backend != candidates[0]:
					c.statsFor(out.backend).failedOver.inc()
				}
				return out.payload, nil
			}
			var ae *client.APIError
			if errors.As(out.err, &ae) && !ae.Retryable() {
				// The backend answered and judged the request bad; every
				// replica would say the same. Fail the cell now.
				return nil, out.err
			}
			if ctx.Err() != nil {
				return nil, out.err
			}
			last = out.err
			c.logf("fleet: cell %s on %s failed (%v), failing over", plan.Key, out.backend, out.err)
			if inflight == 0 && next < len(candidates) {
				launch(false)
			}
		case <-hedgeAt:
			launch(true)
		}
	}
	return nil, fmt.Errorf("fleet: no backend could serve cell %s: %w", plan.Key, last)
}

// attemptCell performs one attempt of one cell on one backend: acquire
// through the circuit breaker, call with the per-cell timeout, report
// the outcome to the breaker, and feed the latency digest on success.
// The attempt is tracked in the membership's in-flight accounting so
// drain-before-leave can wait it out.
func (c *Coordinator) attemptCell(ctx context.Context, backend string, plan server.SimPlan) (*api.SimPayload, error) {
	cl, err := c.pool.Acquire(backend)
	if err != nil {
		return nil, err
	}
	untrack := c.members.track(backend)
	defer untrack()
	cellCtx, cancel := context.WithTimeout(ctx, c.cfg.CellTimeout)
	defer cancel()
	start := time.Now()
	resp, err := cl.Sim(cellCtx, plan.Request)
	c.pool.Report(backend, err)
	if err != nil {
		return nil, err
	}
	c.pool.Observe(backend, time.Since(start))
	return resp.SimPayload, nil
}
