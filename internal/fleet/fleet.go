package fleet

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"syncsim/internal/api"
	"syncsim/internal/client"
	"syncsim/internal/fleet/store"
	"syncsim/internal/flight"
	"syncsim/internal/server"
)

// Config parameterises a Coordinator. Zero values select production
// defaults.
type Config struct {
	// Backends are the syncsimd base URLs the fleet shards over.
	// Required, at least one; more can join and leave at runtime via
	// POST /v1/fleet/join and /v1/fleet/leave.
	Backends []string
	// Replicas is the virtual-node count per backend on the hash ring;
	// 0 selects DefaultReplicas.
	Replicas int
	// Pool configures the per-backend clients and circuit breakers.
	Pool client.PoolConfig
	// Store, when non-nil, is the shared L2 result cache (the same
	// store the backends mount via syncsimd -store): sweep payloads and
	// per-cell sim payloads are looked up before routing and written
	// back after merging.
	Store store.Store
	// CellTimeout bounds one cell's end-to-end attempts on one backend;
	// 0 selects 2m (the backend's own default job timeout).
	CellTimeout time.Duration
	// HealthInterval is the /healthz probe period (re-jittered ±20%
	// every cycle); 0 selects 5s.
	HealthInterval time.Duration
	// HedgeAfter is the static latency budget before a cell is
	// speculatively re-issued to the next ring-order backend, used until
	// a backend's windowed latency digest has enough samples to supply
	// its observed p95 instead. 0 selects 500ms; negative disables
	// hedging entirely.
	HedgeAfter time.Duration
	// HedgeMin floors the observed-p95 hedge budget so a streak of
	// cache-hit-fast responses cannot drive the budget toward zero and
	// hedge every request. 0 selects 25ms.
	HedgeMin time.Duration
	// DrainTimeout bounds how long a leave waits for in-flight attempts
	// on the departing backend; 0 selects 30s.
	DrainTimeout time.Duration
	// Quotas, when non-empty, enforces per-tenant admission budgets on
	// /v1/sweep and /v1/sim (token bucket per sanitized tenant label;
	// over-quota answers 429 with a tenant-scoped Retry-After).
	Quotas map[string]server.Quota
	// QuotaNow is the quota clock; nil selects time.Now (tests inject a
	// fake).
	QuotaNow func() time.Time
	// CellConcurrency bounds cells in flight per sweep; 0 selects
	// 2 × len(Backends).
	CellConcurrency int
	// MaxBodyBytes caps request bodies; 0 selects 1 MiB.
	MaxBodyBytes int64
	// Logf receives operational log lines; nil selects log.Printf.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.CellTimeout == 0 {
		c.CellTimeout = 2 * time.Minute
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 5 * time.Second
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 500 * time.Millisecond
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 25 * time.Millisecond
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.CellConcurrency <= 0 {
		c.CellConcurrency = 2 * len(c.Backends)
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// backendStats are one backend's routing counters (see api.FleetBackend).
type backendStats struct {
	routed     counter
	retried    counter
	failedOver counter
	hedged     counter
}

// counter is a tiny atomic counter (the fleet does not need the metrics
// registry's name indirection for per-backend stats — /v1/fleet/status is
// its exposition surface).
type counter struct{ v atomic.Uint64 }

func (c *counter) inc()          { c.v.Add(1) }
func (c *counter) value() uint64 { return c.v.Load() }

// Coordinator is the fleet front end: it owns the epoch-versioned
// membership ring, the per-backend client pool with circuit breakers and
// latency digests, the health prober, the cell single-flight and
// (optionally) the shared L2 store, and serves the same /v1 job surface
// as a single syncsimd plus the fleet admin plane.
type Coordinator struct {
	cfg     Config
	members *membership
	pool    *client.Pool
	health  *healthTracker
	store   store.Store
	flights *flight.Group[string, *api.SimPayload]
	quota   *server.QuotaSet

	statsMu sync.Mutex
	stats   map[string]*backendStats

	sweeps    counter
	cells     counter
	cacheHits counter
	storeHits counter
	coalesced counter
	hedged    counter
	hedgeWins counter
	throttled counter

	// baseCancel ends the coordinator's lifetime context, which coalesced
	// cell jobs run under instead of their leader's request.
	baseCancel context.CancelFunc

	logf func(format string, args ...any)
	mux  *http.ServeMux
}

// New builds a Coordinator and starts its health prober. Close it when
// done.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Backends, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		members:    newMembership(ring),
		pool:       client.NewPool(ring.Members(), cfg.Pool),
		store:      cfg.Store,
		flights:    flight.NewGroup[string, *api.SimPayload](baseCtx),
		quota:      server.NewQuotaSet(cfg.Quotas, cfg.QuotaNow),
		stats:      make(map[string]*backendStats, len(ring.Members())),
		baseCancel: baseCancel,
		logf:       cfg.Logf,
	}
	for _, b := range ring.Members() {
		c.stats[b] = &backendStats{}
	}
	c.health = newHealthTracker(ring.Members(), cfg.HealthInterval)
	c.health.start()

	c.mux = http.NewServeMux()
	c.mux.HandleFunc("/v1/sweep", c.handleSweep)
	c.mux.HandleFunc("/v1/sim", c.handleSim)
	c.mux.HandleFunc("/v1/capabilities", c.handleCapabilities)
	c.mux.HandleFunc("/v1/fleet/status", c.handleStatus)
	c.mux.HandleFunc("/v1/fleet/join", c.handleJoin)
	c.mux.HandleFunc("/v1/fleet/leave", c.handleLeave)
	c.mux.HandleFunc("/healthz", c.handleHealthz)
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Ring exposes the current routing ring (tests pick their mid-sweep
// victim from it so the kill deterministically owns cells).
func (c *Coordinator) Ring() *Ring { return c.members.load().ring }

// Epoch exposes the current membership epoch.
func (c *Coordinator) Epoch() uint64 { return c.members.load().epoch }

// Close stops the health prober and cancels any coalesced jobs still
// running under the coordinator's lifetime context.
func (c *Coordinator) Close() {
	c.health.stopProbes()
	c.baseCancel()
}

// statsFor returns the backend's counter row, creating it on first use —
// membership is dynamic, so rows appear when members do.
func (c *Coordinator) statsFor(b string) *backendStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	st, ok := c.stats[b]
	if !ok {
		st = &backendStats{}
		c.stats[b] = st
	}
	return st
}

// writeCellError relays a cell failure: a terminal server answer keeps
// its status and message (the fleet is a transparent proxy for request
// bugs); everything else — no backend reachable, budgets exhausted — is
// the fleet's own 502.
func (c *Coordinator) writeCellError(w http.ResponseWriter, err error) {
	var ae *client.APIError
	if errors.As(err, &ae) && !ae.Retryable() {
		http.Error(w, ae.Message, ae.Status)
		return
	}
	http.Error(w, err.Error(), http.StatusBadGateway)
}

// jobContext derives the context cells run under: the caller's, with its
// tenant identity forwarded so backends attribute the fanned-out work.
func jobContext(r *http.Request) context.Context {
	ctx := r.Context()
	if t := r.Header.Get(api.HeaderTenant); t != "" {
		ctx = client.WithTenant(ctx, t)
	}
	return ctx
}

// admitTenant enforces the per-tenant quota at the coordinator's front
// door, before any planning or routing: an over-quota tenant's request
// spends nothing but its own bucket. Tenants without a configured quota
// (including the untenanted) pass through untouched.
func (c *Coordinator) admitTenant(w http.ResponseWriter, r *http.Request) bool {
	tenant := server.TenantLabel(r.Header.Get(api.HeaderTenant))
	wait, ok := c.quota.Admit(tenant)
	if !ok {
		c.throttled.inc()
		w.Header().Set(api.HeaderRetryAfter, server.QuotaRetryAfter(wait))
		http.Error(w, fmt.Sprintf("tenant %q over quota; retry later", tenant), http.StatusTooManyRequests)
	}
	return ok
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !c.admitTenant(w, r) {
		return
	}
	var req api.SweepRequest
	if !server.DecodeBody(w, r, c.cfg.MaxBodyBytes, &req) {
		return
	}
	plan, err := server.PlanSweep(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.sweeps.inc()

	if p := store.GetJSON[api.SweepPayload](c.store, plan.Key, c.logf); p != nil {
		c.cacheHits.inc()
		server.WriteJSON(w, http.StatusOK, api.SweepResponse{SweepPayload: p, Served: "store"})
		return
	}

	payload, err := c.runSweep(jobContext(r), plan)
	if err != nil {
		c.writeCellError(w, err)
		return
	}
	store.PutJSON(c.store, plan.Key, payload)
	server.WriteJSON(w, http.StatusOK, api.SweepResponse{SweepPayload: payload, Served: "run"})
}

// runSweep fans the plan's cells across the ring and merges the results.
// One failed cell fails the sweep (after its own ring-order failover,
// hedging, and epoch re-route): a partial sweep would not be
// bit-identical to anything.
func (c *Coordinator) runSweep(ctx context.Context, plan server.SweepPlan) (*api.SweepPayload, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	payloads := make([]*api.SimPayload, len(plan.Cells))
	errs := make([]error, len(plan.Cells))
	sem := make(chan struct{}, c.cfg.CellConcurrency)
	var wg sync.WaitGroup
	for i, cell := range plan.Cells {
		wg.Add(1)
		go func(i int, cell server.SweepCell) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			payload, err := c.runCell(ctx, cell.Plan)
			if err != nil {
				errs[i] = fmt.Errorf("cell %s/%s: %w", cell.Bench, cell.Model, err)
				cancel() // no point finishing a sweep that cannot merge
				return
			}
			payloads[i] = payload
		}(i, cell)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return server.MergeSweep(plan, payloads)
}

// runCell serves one cell: shared store first, then — deduplicated
// through the cell single-flight — the hedged race over the ring's
// failover order (see routeCell).
func (c *Coordinator) runCell(ctx context.Context, plan server.SimPlan) (*api.SimPayload, error) {
	c.cells.inc()
	if p := store.GetJSON[api.SimPayload](c.store, plan.Key, c.logf); p != nil {
		c.storeHits.inc()
		return p, nil
	}
	payload, shared, err := c.flights.Do(ctx, plan.Key, func(jobCtx context.Context) (*api.SimPayload, error) {
		return c.routeCell(jobCtx, plan)
	})
	if shared {
		c.coalesced.inc()
	}
	return payload, err
}

// routeCell routes one cell under the membership epoch it loads at
// entry: the failover order is that epoch's ring order, health-filtered
// (falling back to the full order when every backend looks down — probes
// can be stale; the circuit breaker still guards the actual call). Only
// after that epoch's order is exhausted does it look again: if the
// membership advanced meanwhile, the cell re-routes once per new epoch —
// so a sweep in flight across a join or leave finishes on whichever ring
// can actually serve it, and the loop terminates because the epoch
// strictly increases.
func (c *Coordinator) routeCell(ctx context.Context, plan server.SimPlan) (*api.SimPayload, error) {
	rs := c.members.load()
	for {
		order := rs.ring.Order(RouteKey(plan.Route))
		candidates := make([]string, 0, len(order))
		for _, b := range order {
			if c.health.ok(b) {
				candidates = append(candidates, b)
			}
		}
		if len(candidates) == 0 {
			candidates = order
		}
		payload, err := c.raceCell(ctx, plan, candidates)
		if err == nil {
			return payload, nil
		}
		var ae *client.APIError
		if errors.As(err, &ae) && !ae.Retryable() {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, err
		}
		next := c.members.load()
		if next.epoch == rs.epoch {
			return nil, err
		}
		c.logf("fleet: cell %s exhausted epoch %d, re-routing on epoch %d", plan.Key, rs.epoch, next.epoch)
		rs = next
	}
}

func (c *Coordinator) handleSim(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !c.admitTenant(w, r) {
		return
	}
	var req api.SimRequest
	if !server.DecodeBody(w, r, c.cfg.MaxBodyBytes, &req) {
		return
	}
	plan, err := server.PlanSim(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	payload, err := c.runCell(jobContext(r), plan)
	if err != nil {
		c.writeCellError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, api.SimResponse{SimPayload: payload, Served: "run"})
}

// handleCapabilities proxies GET /v1/capabilities from the first backend
// that answers, in ring-member order: the fleet's vocabulary is its
// backends' (they are replicas of one service).
func (c *Coordinator) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var last error
	for _, b := range c.members.load().ring.Members() {
		cl, err := c.pool.Acquire(b)
		if err != nil {
			last = err
			continue
		}
		ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
		caps, err := cl.Capabilities(ctx)
		cancel()
		c.pool.Report(b, err)
		if err == nil {
			server.WriteJSON(w, http.StatusOK, caps)
			return
		}
		last = err
	}
	http.Error(w, fmt.Sprintf("no backend answered capabilities: %v", last), http.StatusBadGateway)
}

// Status snapshots the fleet counters (also served on /v1/fleet/status).
func (c *Coordinator) Status() api.FleetStatusResponse {
	rs := c.members.load()
	resp := api.FleetStatusResponse{
		Epoch:     rs.epoch,
		Replicas:  rs.ring.Replicas(),
		Sweeps:    c.sweeps.value(),
		Cells:     c.cells.value(),
		CacheHits: c.cacheHits.value(),
		StoreHits: c.storeHits.value(),
		Coalesced: c.coalesced.value(),
		Hedged:    c.hedged.value(),
		HedgeWins: c.hedgeWins.value(),
		Throttled: c.throttled.value(),
	}
	for _, b := range rs.ring.Members() {
		st := c.statsFor(b)
		var p95ms int64
		if p95, ok := c.pool.LatencyP95(b); ok {
			p95ms = p95.Milliseconds()
		}
		resp.Backends = append(resp.Backends, api.FleetBackend{
			URL:        b,
			Healthy:    c.health.ok(b),
			Circuit:    string(c.pool.State(b)),
			Routed:     st.routed.value(),
			Retried:    st.retried.value(),
			FailedOver: st.failedOver.value(),
			Hedged:     st.hedged.value(),
			P95Millis:  p95ms,
		})
	}
	return resp
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	server.WriteJSON(w, http.StatusOK, c.Status())
}

// handleHealthz: the fleet is healthy while at least one backend is.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if !c.health.anyHealthy() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"no healthy backends"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}
