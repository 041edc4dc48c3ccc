package client

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrCircuitOpen is returned by Pool.Acquire while a backend's circuit
// breaker is open: recent calls failed consecutively, and the cooldown
// that lets the backend recover has not elapsed. Callers should route the
// work to another backend rather than wait. Test with errors.Is.
var ErrCircuitOpen = errors.New("client: backend circuit open")

// PoolConfig parameterises a Pool; zero values select production
// defaults.
type PoolConfig struct {
	// Client configures the per-backend clients.
	Client Config
	// FailureThreshold is the run of consecutive counted failures that
	// opens a backend's circuit; 0 selects 3.
	FailureThreshold int
	// Cooldown is how long an open circuit rejects callers before
	// half-opening for a single probe; 0 selects 5s.
	Cooldown time.Duration
	// Now is the clock; nil selects time.Now (fake it in tests).
	Now func() time.Time
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// CircuitState is a backend circuit breaker's position.
type CircuitState string

const (
	// CircuitClosed: calls flow normally.
	CircuitClosed CircuitState = "closed"
	// CircuitOpen: calls are rejected until the cooldown elapses.
	CircuitOpen CircuitState = "open"
	// CircuitHalfOpen: the cooldown elapsed and exactly one probe call
	// is allowed through; its outcome closes or re-opens the circuit.
	CircuitHalfOpen CircuitState = "half-open"
)

// backendState is one backend's client plus its circuit breaker. The
// breaker is a classic consecutive-failure design: FailureThreshold
// counted failures in a row open it for Cooldown; after that one probe is
// let through (half-open) and its outcome closes or re-opens the circuit.
type backendState struct {
	client      *Client
	consecFails int
	openUntil   time.Time // zero when closed
	probing     bool      // a half-open probe is in flight
	lat         latencyWindow
}

// latencyWindowSize is the sample window of the per-backend latency
// digest: large enough that one outlier cannot own the p95, small enough
// that the digest tracks a backend whose latency regime shifts (a
// redeploy, a noisy neighbour) within a few dozen calls.
const latencyWindowSize = 64

// latencyMinSamples is how many observations the digest needs before it
// publishes a quantile; below it, callers fall back to their static
// hedge budget.
const latencyMinSamples = 8

// latencyWindow is a fixed-size ring of the backend's most recent
// successful-call latencies. Quantiles are computed by copy-and-sort —
// at 64 samples that is cheaper than maintaining a sketch, and it is
// exact.
type latencyWindow struct {
	samples [latencyWindowSize]time.Duration
	n       int // total observations (ring index = n % size)
}

func (l *latencyWindow) observe(d time.Duration) {
	l.samples[l.n%latencyWindowSize] = d
	l.n++
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) over the window, or false
// until latencyMinSamples observations have been made.
func (l *latencyWindow) quantile(q float64) (time.Duration, bool) {
	n := l.n
	if n > latencyWindowSize {
		n = latencyWindowSize
	}
	if l.n < latencyMinSamples {
		return 0, false
	}
	buf := make([]time.Duration, n)
	copy(buf, l.samples[:n])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := int(q * float64(n-1))
	return buf[idx], true
}

// Pool manages one Client per fleet backend, each behind an independent
// circuit breaker, so a dead or flapping backend sheds load onto its
// replicas instead of soaking every caller in timeouts. The fleet
// coordinator Acquires a client for the backend its ring picked, runs the
// call, and Reports the outcome; terminal 4xx answers do NOT count
// against the circuit (the backend answered — the request was bad), while
// transport errors, 5xx answers, and exhausted retry budgets do.
type Pool struct {
	cfg PoolConfig

	mu       sync.Mutex
	backends map[string]*backendState
}

// NewPool builds a pool over the given backend base URLs.
func NewPool(backends []string, cfg PoolConfig) *Pool {
	p := &Pool{cfg: cfg.withDefaults(), backends: make(map[string]*backendState, len(backends))}
	for _, b := range backends {
		p.backends[b] = &backendState{client: New(b, p.cfg.Client)}
	}
	return p
}

// Add registers a backend with a fresh client, closed circuit, and empty
// latency window. Adding an existing backend is a no-op (its breaker and
// digest state are kept — the fleet may re-announce members it already
// knows).
func (p *Pool) Add(backend string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.backends[backend]; ok {
		return
	}
	p.backends[backend] = &backendState{client: New(backend, p.cfg.Client)}
}

// Remove forgets a backend: later Acquires fail with unknown-backend, and
// its breaker and latency state are dropped. Calls already holding the
// client finish normally (their Report becomes a no-op).
func (p *Pool) Remove(backend string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.backends, backend)
}

// Observe records one successful call's latency in the backend's
// windowed digest (the hedge budget's input). Failures are deliberately
// not recorded: a timeout's latency is the timeout, and feeding it back
// would inflate the very budget that decides when to hedge around it.
func (p *Pool) Observe(backend string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.backends[backend]; ok {
		st.lat.observe(d)
	}
}

// LatencyP95 returns the backend's windowed p95 successful-call latency,
// or false until the digest has latencyMinSamples observations (or the
// backend is unknown).
func (p *Pool) LatencyP95(backend string) (time.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.backends[backend]
	if !ok {
		return 0, false
	}
	return st.lat.quantile(0.95)
}

// Backends lists the pool's backend URLs, sorted.
func (p *Pool) Backends() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.backends))
	for b := range p.backends {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Acquire hands out the backend's client, or ErrCircuitOpen while its
// breaker is open (or while another caller holds the half-open probe
// slot). Every Acquire must be paired with a Report of the call's
// outcome.
func (p *Pool) Acquire(backend string) (*Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.backends[backend]
	if !ok {
		return nil, fmt.Errorf("client: unknown backend %q", backend)
	}
	if !st.openUntil.IsZero() {
		if p.cfg.Now().Before(st.openUntil) {
			return nil, fmt.Errorf("%w: %s until %s", ErrCircuitOpen, backend, st.openUntil.Format(time.RFC3339))
		}
		// Cooldown elapsed: half-open. One probe at a time.
		if st.probing {
			return nil, fmt.Errorf("%w: %s (probe in flight)", ErrCircuitOpen, backend)
		}
		st.probing = true
	}
	return st.client, nil
}

// Report records a call's outcome for the backend's circuit breaker.
// Success — and any terminal 4xx answer, which proves the backend is
// alive and judging requests — closes the circuit and resets the failure
// run. Counted failures (transport errors, 5xx, retryable statuses,
// exhausted budgets, malformed bodies, per-call timeouts) extend the run
// and open the circuit at the threshold. A call its caller cancelled (a
// hedge loser, an abandoned sweep) is no verdict on the backend: it only
// frees the half-open probe slot.
func (p *Pool) Report(backend string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.backends[backend]
	if !ok {
		return
	}
	st.probing = false
	if errors.Is(err, context.Canceled) {
		return
	}
	if !countsAgainstCircuit(err) {
		st.consecFails = 0
		st.openUntil = time.Time{}
		return
	}
	st.consecFails++
	if st.consecFails >= p.cfg.FailureThreshold {
		st.openUntil = p.cfg.Now().Add(p.cfg.Cooldown)
	}
}

// State reports the backend's breaker position, for /v1/fleet/status.
func (p *Pool) State(backend string) CircuitState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.backends[backend]
	if !ok || st.openUntil.IsZero() {
		return CircuitClosed
	}
	if p.cfg.Now().Before(st.openUntil) {
		return CircuitOpen
	}
	return CircuitHalfOpen
}

// countsAgainstCircuit classifies an outcome for breaker purposes. A
// terminal 4xx is the backend working correctly on a request that was
// wrong — punishing the backend for it would shift the same bad request
// onto a replica and trip that one too.
func countsAgainstCircuit(err error) bool {
	if err == nil {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) && !ae.Retryable() && ae.Status/100 == 4 {
		return false
	}
	return true
}
