package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// fakeClock is a settable clock for driving circuit cooldowns.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, time.August, 8, 12, 0, 0, 0, time.UTC)}
}
func poolCfg(clk *fakeClock, threshold int) PoolConfig {
	return PoolConfig{Client: fastCfg(), FailureThreshold: threshold, Cooldown: 5 * time.Second, Now: clk.now}
}

// TestPoolCircuitOpensAtThreshold: a run of counted failures opens the
// breaker; until then the backend stays acquirable.
func TestPoolCircuitOpensAtThreshold(t *testing.T) {
	clk := newFakeClock()
	p := NewPool([]string{"http://a", "http://b"}, poolCfg(clk, 3))
	boom := errors.New("connection refused")

	for i := 0; i < 2; i++ {
		if _, err := p.Acquire("http://a"); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		p.Report("http://a", boom)
	}
	if got := p.State("http://a"); got != CircuitClosed {
		t.Fatalf("state after 2 fails = %s, want closed", got)
	}

	if _, err := p.Acquire("http://a"); err != nil {
		t.Fatal(err)
	}
	p.Report("http://a", boom) // third consecutive: trips
	if got := p.State("http://a"); got != CircuitOpen {
		t.Fatalf("state after 3 fails = %s, want open", got)
	}
	if _, err := p.Acquire("http://a"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("acquire on open circuit: err = %v, want ErrCircuitOpen", err)
	}
	// The sibling backend's breaker is independent.
	if _, err := p.Acquire("http://b"); err != nil {
		t.Fatalf("sibling backend affected: %v", err)
	}
}

// TestPoolHalfOpenProbe: after the cooldown exactly one probe is let
// through; its success closes the circuit, its failure re-opens it.
func TestPoolHalfOpenProbe(t *testing.T) {
	clk := newFakeClock()
	p := NewPool([]string{"http://a"}, poolCfg(clk, 1))
	boom := errors.New("reset by peer")

	mustAcquire := func() {
		t.Helper()
		if _, err := p.Acquire("http://a"); err != nil {
			t.Fatal(err)
		}
	}

	mustAcquire()
	p.Report("http://a", boom)
	if got := p.State("http://a"); got != CircuitOpen {
		t.Fatalf("state = %s, want open", got)
	}

	clk.advance(6 * time.Second)
	if got := p.State("http://a"); got != CircuitHalfOpen {
		t.Fatalf("state after cooldown = %s, want half-open", got)
	}
	mustAcquire() // the probe slot
	if _, err := p.Acquire("http://a"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second acquire during probe: err = %v, want ErrCircuitOpen", err)
	}
	p.Report("http://a", boom) // probe failed: re-open
	if _, err := p.Acquire("http://a"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("acquire after failed probe: err = %v, want ErrCircuitOpen", err)
	}

	clk.advance(6 * time.Second)
	mustAcquire()             // next probe
	p.Report("http://a", nil) // succeeded: close
	if got := p.State("http://a"); got != CircuitClosed {
		t.Fatalf("state after successful probe = %s, want closed", got)
	}
	mustAcquire()
	p.Report("http://a", nil)
}

// TestPoolTerminal4xxDoesNotTrip: a backend correctly rejecting bad
// requests is healthy — 400s must not open its circuit (they would just
// shift the same bad request onto a replica and trip that one too), and
// they reset an in-progress failure run. Counted failures: transport
// errors, 5xx answers (even terminal ones like 500), retryable statuses,
// exhausted budgets.
func TestPoolTerminal4xxDoesNotTrip(t *testing.T) {
	clk := newFakeClock()
	p := NewPool([]string{"http://a"}, poolCfg(clk, 2))
	badReq := &APIError{Status: http.StatusBadRequest, Message: "unknown benchmark"}
	panic500 := &APIError{Status: http.StatusInternalServerError, Message: "boom", IncidentID: "inc-1"}

	report := func(err error) {
		t.Helper()
		if _, aerr := p.Acquire("http://a"); aerr != nil {
			t.Fatal(aerr)
		}
		p.Report("http://a", err)
	}

	for i := 0; i < 5; i++ {
		report(badReq)
	}
	if got := p.State("http://a"); got != CircuitClosed {
		t.Fatalf("state after 5× 400 = %s, want closed", got)
	}

	report(errors.New("dial tcp: connection refused"))
	report(badReq) // 4xx resets the run
	report(errors.New("dial tcp: connection refused"))
	if got := p.State("http://a"); got != CircuitClosed {
		t.Fatalf("state = %s, want closed — the 400 should have reset the failure run", got)
	}

	report(nil) // clean slate
	report(panic500)
	report(&APIError{Status: http.StatusServiceUnavailable, Message: "draining"})
	if got := p.State("http://a"); got != CircuitOpen {
		t.Fatalf("state after 500+503 = %s, want open", got)
	}
}

// TestPoolUnknownBackend: acquiring a URL the pool was not built with is
// an error (a routing bug upstream), and reporting one is a no-op.
func TestPoolUnknownBackend(t *testing.T) {
	p := NewPool([]string{"http://a"}, PoolConfig{Client: fastCfg()})
	if _, err := p.Acquire("http://nope"); err == nil {
		t.Fatal("acquire of unknown backend succeeded")
	}
	p.Report("http://nope", errors.New("x")) // must not panic
	if got := p.Backends(); len(got) != 1 || got[0] != "http://a" {
		t.Fatalf("backends = %v", got)
	}
}

// TestPoolCancelledCallIsNoVerdict: a call its caller cancelled (a hedge
// loser) says nothing about the backend. Threshold-many cancelled reports
// leave the circuit closed, and a cancelled half-open probe frees the
// probe slot without closing or re-opening the circuit. A per-call
// timeout still counts.
func TestPoolCancelledCallIsNoVerdict(t *testing.T) {
	clk := newFakeClock()
	p := NewPool([]string{"http://a"}, poolCfg(clk, 2))
	cancelled := fmt.Errorf("client: %w (last error: reset)", context.Canceled)
	report := func(err error) {
		t.Helper()
		if _, aerr := p.Acquire("http://a"); aerr != nil {
			t.Fatal(aerr)
		}
		p.Report("http://a", err)
	}

	for i := 0; i < 4; i++ {
		report(cancelled)
	}
	if got := p.State("http://a"); got != CircuitClosed {
		t.Fatalf("state after 4 cancelled calls = %s, want closed", got)
	}

	report(errors.New("connection refused"))
	report(cancelled) // neither extends nor resets the failure run
	report(fmt.Errorf("client: %w", context.DeadlineExceeded))
	if got := p.State("http://a"); got != CircuitOpen {
		t.Fatalf("state after refused+timeout around a cancel = %s, want open", got)
	}

	clk.advance(6 * time.Second)
	report(cancelled) // the half-open probe, abandoned by its caller
	if got := p.State("http://a"); got != CircuitHalfOpen {
		t.Fatalf("state after a cancelled probe = %s, want still half-open", got)
	}
	report(nil) // the slot is free again: the next probe closes the circuit
	if got := p.State("http://a"); got != CircuitClosed {
		t.Fatalf("state after a successful probe = %s, want closed", got)
	}
}
