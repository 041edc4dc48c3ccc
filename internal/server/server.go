// Package server is the resident simulation service behind cmd/syncsimd:
// an HTTP front end that runs simulation and sweep jobs on the existing
// internal/engine worker pool and returns machine.Result /
// metrics.SuiteReport JSON.
//
// The production behaviours are the point of the package:
//
//   - identical in-flight requests are coalesced single-flight onto one
//     execution, and completed payloads are kept in a bounded LRU result
//     cache, so a thundering herd of equal queries costs one simulation;
//   - admission is a bounded two-stage queue (running + waiting) that
//     sheds excess load with 429 + Retry-After instead of growing without
//     bound;
//   - every job runs under a context with a server-side timeout, cancelled
//     when the last interested client disconnects, and trace generation is
//     memoised in a capacity-bounded engine.TraceCache;
//   - shutdown is graceful: BeginDrain stops admissions while in-flight
//     jobs run to completion;
//   - /healthz, /metrics (expvar-style counters and gauges) and
//     /debug/pprof expose the service's state.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"syncsim/internal/api"
	"syncsim/internal/chaos"
	"syncsim/internal/core"
	"syncsim/internal/engine"
	"syncsim/internal/fleet/store"
	"syncsim/internal/flight"
	"syncsim/internal/machine"
	"syncsim/internal/metrics"
	"syncsim/internal/predict"
	"syncsim/internal/replay"
)

// Config parameterises a Server. Zero values select production defaults.
type Config struct {
	// Workers bounds concurrently executing jobs; 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs waiting for a worker beyond those running;
	// requests past workers+depth are shed with 429. 0 selects 64;
	// negative means no waiting room.
	QueueDepth int
	// JobTimeout caps one job's run (queue wait included); 0 selects 2m.
	JobTimeout time.Duration
	// ResultCacheSize bounds the completed-payload LRU; 0 selects 256;
	// negative disables result caching.
	ResultCacheSize int
	// TraceCacheCap bounds the trace cache entries; 0 selects 64;
	// negative means unbounded (the CLI behaviour — not recommended for
	// a resident service).
	TraceCacheCap int
	// MaxBodyBytes caps request bodies; 0 selects 1 MiB.
	MaxBodyBytes int64
	// StallTimeout arms the per-job watchdog: a job whose scheduler
	// heartbeat stalls for this long is aborted (504) without touching the
	// process. 0 selects 30s; negative disables the watchdog.
	StallTimeout time.Duration
	// Chaos, when non-nil, is the fault-injection plane consulted at job
	// boundaries (see internal/chaos and the syncsimd -chaos flag). Nil —
	// the production default — is permanently inert.
	Chaos *chaos.Plane
	// Predict, when non-nil, is the fitted analytic prediction model
	// served by POST /v1/predict's fast path (see internal/predict and
	// the syncsimd -predict-model flag). Nil: analytic mode answers 422
	// and auto mode always falls back to simulation.
	Predict *predict.Model
	// Store, when non-nil, is the fleet's shared L2 result cache (see
	// internal/fleet/store and the syncsimd -store flag): sim and sweep
	// payloads missing from the in-memory L1 are looked up here before
	// running, and completed payloads are written back, so any fleet
	// member can serve a result any other member computed. Nil — the
	// standalone default — disables the tier.
	Store store.Store
	// Quotas, when non-empty, enforces per-tenant admission budgets (see
	// Quota and the syncsimd -quota flag): a job request whose sanitized
	// X-Tenant label has an exhausted token bucket is rejected 429 with a
	// tenant-scoped Retry-After before it touches the queue. Tenants not
	// in the table — and untenanted requests — are never quota-rejected.
	Quotas map[string]Quota
	// QuotaNow is the quota clock; nil selects time.Now (tests inject a
	// fake to make token refill deterministic).
	QuotaNow func() time.Time
	// Logf receives operational log lines (panic incidents with stacks).
	// Nil selects log.Printf.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 64
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 2 * time.Minute
	}
	switch {
	case c.ResultCacheSize == 0:
		c.ResultCacheSize = 256
	case c.ResultCacheSize < 0:
		c.ResultCacheSize = 0
	}
	switch {
	case c.TraceCacheCap == 0:
		c.TraceCacheCap = 64
	case c.TraceCacheCap < 0:
		c.TraceCacheCap = 0
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server is the simulation service. Create one with New, mount Handler on
// an http.Server, and shut down with BeginDrain + Drain + Close.
type Server struct {
	cfg        Config
	traceCache *engine.TraceCache
	eng        *engine.Engine
	adm        *admission
	flights    *flight.Group[string, any]
	results    *flight.LRU[string, any] // nil when ResultCacheSize < 0
	store      store.Store

	reg       *metrics.Registry
	accepted  *metrics.Counter // jobs that reached a worker slot
	rejected  *metrics.Counter // requests shed by the admission queue
	completed *metrics.Counter // jobs that finished successfully
	failed    *metrics.Counter // jobs that errored (incl. timeout/cancel)
	coalesced *metrics.Counter // requests served by joining another's flight
	cacheHits *metrics.Counter // requests served from the result LRU
	storeHits *metrics.Counter // requests served from the shared L2 store
	panicked  *metrics.Counter // jobs that panicked (recovered; 500 + incident)
	wedged    *metrics.Counter // jobs aborted by the liveness watchdog
	throttled *metrics.Counter // requests rejected 429 by per-tenant quotas
	simCycles *metrics.Counter // total simulated machine cycles
	schedIt   *metrics.Counter // total scheduler iterations (Result.Sched)
	genTime   *metrics.Timer
	simTime   *metrics.Timer

	schedLeased    *metrics.Counter // scheduler steps run under a lease
	schedRollbacks *metrics.Counter // leases rolled back by a snoop

	predAnalytic *metrics.Counter // /v1/predict answered by the fitted model
	predFallback *metrics.Counter // /v1/predict fell through to simulation

	chaos   *chaos.Plane
	predict *predict.Model
	quota   *QuotaSet // nil admits everything
	logf    func(format string, args ...any)

	// tenants bounds the cardinality of per-tenant request counters:
	// the first tenantCap distinct (sanitised) tenant names get their
	// own counter, later ones share "other".
	tenantMu sync.Mutex
	tenants  map[string]*metrics.Counter

	baseCancel context.CancelFunc // ends the context jobs run under
	draining   atomic.Bool
	inflight   atomic.Int64 // job requests currently inside a handler

	// execTasks is the execution back end; tests swap it to count runs
	// and to gate completion.
	execTasks func(context.Context, []engine.Task) ([]engine.TaskResult, metrics.SuiteReport, error)

	mux *http.ServeMux
}

// New builds a Server ready to serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg, chaos: cfg.Chaos, predict: cfg.Predict, logf: cfg.Logf,
		store: cfg.Store, tenants: make(map[string]*metrics.Counter),
		quota: NewQuotaSet(cfg.Quotas, cfg.QuotaNow),
	}
	s.traceCache = engine.NewTraceCacheCap(cfg.TraceCacheCap)
	s.eng = engine.New(engine.Config{Workers: cfg.Workers, Cache: s.traceCache, Chaos: cfg.Chaos})
	s.adm = newAdmission(cfg.Workers, cfg.QueueDepth)
	if cfg.ResultCacheSize > 0 {
		s.results = flight.NewLRU[string, any](cfg.ResultCacheSize)
	}

	s.reg = metrics.New()
	s.accepted = s.reg.Counter("jobs_accepted")
	s.rejected = s.reg.Counter("jobs_rejected")
	s.completed = s.reg.Counter("jobs_completed")
	s.failed = s.reg.Counter("jobs_failed")
	s.coalesced = s.reg.Counter("requests_coalesced")
	s.cacheHits = s.reg.Counter("result_cache_hits")
	s.storeHits = s.reg.Counter("result_store_hits")
	s.panicked = s.reg.Counter("jobs_panicked")
	s.wedged = s.reg.Counter("jobs_wedged")
	s.throttled = s.reg.Counter("jobs_throttled")
	s.simCycles = s.reg.Counter("sim_cycles_total")
	s.schedIt = s.reg.Counter("sched_iterations_total")
	s.schedLeased = s.reg.Counter("sched_leased_steps_total")
	s.schedRollbacks = s.reg.Counter("sched_rollbacks_total")
	s.genTime = s.reg.Timer("phase_generate")
	s.simTime = s.reg.Timer("phase_simulate")
	s.predAnalytic = s.reg.Counter("predict_analytic")
	s.predFallback = s.reg.Counter("predict_fallback")

	baseCtx, baseCancel := context.WithCancel(context.Background())
	s.baseCancel = baseCancel
	s.flights = flight.NewGroup[string, any](baseCtx)
	s.execTasks = s.eng.Run

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/sim", s.handleSim)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/predict", s.handlePredict)
	s.mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/v1/capabilities", s.handleCapabilities)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/metrics", metrics.Handler(s.reg, s.gauges))
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the service's HTTP handler: the route mux behind a
// recover barrier, so a panic that escapes any handler (the job layer has
// its own barrier inside the flight) is answered with a 500 + incident ID
// instead of tearing down the connection with no response.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.writeError(w, r, flight.Recovered(r.Method+" "+r.URL.Path, v))
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// TraceCache exposes the server's bounded trace cache (for wiring and
// tests).
func (s *Server) TraceCache() *engine.TraceCache { return s.traceCache }

// BeginDrain flips the server into draining mode: /healthz turns 503 so
// load balancers stop routing here, and new jobs are refused, while jobs
// already admitted run to completion. Safe to call more than once.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight returns the number of job requests currently being served.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Drain blocks until every in-flight job request has finished or ctx
// expires. Call after BeginDrain; pair with http.Server.Shutdown, which
// waits for the connections themselves.
func (s *Server) Drain(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain: %d job(s) still in flight: %w", s.inflight.Load(), ctx.Err())
		case <-tick.C:
		}
	}
}

// Close cancels the server's base context, aborting any job still running.
// Call last, after Drain.
func (s *Server) Close() { s.baseCancel() }

// gauges samples the instantaneous values for /metrics.
func (s *Server) gauges() map[string]int64 {
	tc := s.traceCache.Stats()
	g := map[string]int64{
		"queue_depth":          int64(s.adm.queued()),
		"jobs_running":         int64(s.adm.running()),
		"inflight_requests":    s.inflight.Load(),
		"result_cache_len":     int64(s.results.Len()),
		"trace_cache_len":      int64(tc.Len),
		"trace_cache_cap":      int64(tc.Cap),
		"trace_cache_hit":      tc.Hits,
		"trace_cache_miss":     tc.Misses,
		"trace_cache_evicted":  tc.Evictions,
		"draining":             boolGauge(s.draining.Load()),
		"chaos_enabled":        boolGauge(s.chaos != nil),
		"quota_enforced":       boolGauge(s.quota != nil),
		"predict_model_loaded": boolGauge(s.predict != nil),
		"result_store_enabled": boolGauge(s.store != nil),
	}
	for pt, fired := range s.chaos.Snapshot() {
		g["chaos_fired_"+pt] = int64(fired)
	}
	return g
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Retry-After bounds: the adaptive hint never strays outside [min, max]
// seconds regardless of queue pressure or jitter (pinned by
// TestRetryAfterBounds).
const (
	minRetryAfterSec = 1
	maxRetryAfterSec = 30
)

// retryAfterSeconds derives a Retry-After hint from queue pressure: an
// idle waiting room suggests ~1s, a saturated one pushes clients out
// toward 16s, and ±25% full jitter (u uniform in [0,1)) decorrelates a
// herd of rejected clients so they do not return in lockstep.
func retryAfterSeconds(queued, capacity int, u float64) int {
	if capacity < 1 {
		capacity = 1
	}
	frac := float64(queued) / float64(capacity)
	if frac > 1 {
		frac = 1
	}
	base := 1 + frac*15          // 1..16s as the queue fills
	sec := base * (0.75 + 0.5*u) // ±25% full jitter
	n := int(math.Round(sec))
	if n < minRetryAfterSec {
		n = minRetryAfterSec
	}
	if n > maxRetryAfterSec {
		n = maxRetryAfterSec
	}
	return n
}

// retryAfterHint renders the adaptive hint for response headers.
func (s *Server) retryAfterHint() string {
	return strconv.Itoa(retryAfterSeconds(s.adm.queued(), s.cfg.QueueDepth, rand.Float64()))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.retryAfterHint())
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// DecodeBody decodes a JSON request body into dst the way every syncsim
// front door does: at most maxBytes, no unknown fields, nothing after the
// JSON value. On failure it has already answered with the taxonomy's
// status (413 for an oversize body, 400 otherwise) and returns false.
func DecodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil && dec.More() {
		err = errors.New("trailing data after JSON body")
	}
	if err != nil {
		he := classify(fmt.Errorf("%w: %w", errBadRequest, err))
		http.Error(w, he.msg, he.status)
		return false
	}
	return true
}

// WriteJSON answers with v as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// admitJobRequest performs the checks shared by the job endpoints and, on
// success, registers the request as in-flight. The returned func must be
// deferred.
func (s *Server) admitJobRequest(w http.ResponseWriter, r *http.Request) (func(), bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return nil, false
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.retryAfterHint())
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return nil, false
	}
	tenant := sanitizeTenant(r.Header.Get(api.HeaderTenant))
	s.countTenant(tenant)
	// Quota enforcement sits before the global admission queue on
	// purpose: one tenant's retry storm must burn its own bucket, not a
	// queue slot every other tenant is waiting for. The Retry-After here
	// is tenant-scoped (this bucket's refill time), unlike the 429s the
	// queue itself sheds.
	if wait, ok := s.quota.Admit(tenant); !ok {
		s.throttled.Inc()
		s.rejected.Inc()
		w.Header().Set(api.HeaderRetryAfter, retryAfterHeader(wait))
		http.Error(w, fmt.Sprintf("tenant %q over quota; retry later", tenant), http.StatusTooManyRequests)
		return nil, false
	}
	s.inflight.Add(1)
	return func() { s.inflight.Add(-1) }, true
}

// tenantCap bounds how many distinct tenants get their own /metrics
// counter; later arrivals share tenant_requests_other so a header-spraying
// client cannot grow the registry without bound.
const tenantCap = 64

// countTenant attributes one admitted job request to its X-Tenant header
// under tenant_requests_<tenant>. No header, no counter.
func (s *Server) countTenant(raw string) {
	t := sanitizeTenant(raw)
	if t == "" {
		return
	}
	s.tenantMu.Lock()
	c, ok := s.tenants[t]
	if !ok {
		if len(s.tenants) >= tenantCap {
			t = "other"
		}
		if c, ok = s.tenants[t]; !ok {
			c = s.reg.Counter("tenant_requests_" + t)
			s.tenants[t] = c
		}
	}
	s.tenantMu.Unlock()
	c.Inc()
}

// sanitizeTenant folds an arbitrary header value into a metric-name-safe
// slug: lowercase [a-z0-9_-], everything else replaced by '_', at most 32
// bytes. Empty in, empty out.
func sanitizeTenant(raw string) string {
	raw = strings.ToLower(strings.TrimSpace(raw))
	if raw == "" {
		return ""
	}
	var b strings.Builder
	for i, r := range raw {
		if i >= 32 {
			break
		}
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	done, ok := s.admitJobRequest(w, r)
	if !ok {
		return
	}
	defer done()

	var req api.SimRequest
	if !DecodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	job, err := normalizeSim(req)
	if err != nil {
		s.writeError(w, r, fmt.Errorf("%w: %w", errBadRequest, err))
		return
	}

	payload, served, err := s.simResult(r, job)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	WriteJSON(w, http.StatusOK, api.SimResponse{SimPayload: payload, Served: served})
}

// serve answers one validated job through the ladder every job endpoint
// shares: the L1 result cache, then the L2 store l2 (nil for jobs the
// fleet does not share), then a single-flight execution whose payload
// fills both tiers. It reports which rung answered: cache, store,
// coalesced or run.
func serve[P any](s *Server, r *http.Request, key string, l2 store.Store, run func(context.Context) (*P, error)) (*P, string, error) {
	if v, ok := s.results.Get(key); ok {
		s.cacheHits.Inc()
		return v.(*P), "cache", nil
	}
	if p := store.GetJSON[P](l2, key, s.logf); p != nil {
		s.storeHits.Inc()
		s.results.Put(key, p)
		return p, "store", nil
	}
	v, shared, err := s.flights.Do(r.Context(), key, func(ctx context.Context) (any, error) {
		p, err := execute(ctx, s, run)
		if err != nil {
			return nil, err
		}
		s.results.Put(key, p)
		store.PutJSON(l2, key, p)
		return p, nil
	})
	if err != nil {
		return nil, "", err
	}
	if shared {
		s.coalesced.Inc()
		return v.(*P), "coalesced", nil
	}
	return v.(*P), "run", nil
}

// execute runs one job in an admission slot under the job timeout, the
// chaos plane's job-boundary faults and the liveness watchdog, and counts
// its outcome.
func execute[P any](ctx context.Context, s *Server, run func(context.Context) (*P, error)) (*P, error) {
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	if s.chaos.Should(chaos.QueueFull) {
		return nil, errBusy
	}
	if err := s.adm.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.adm.release()
	s.accepted.Inc()
	s.chaos.Sleep(ctx)
	ctx, stopStorm := s.chaos.WrapCancel(ctx)
	defer stopStorm()
	wctx, stopWatch := s.watchJob(ctx)
	defer stopWatch()

	p, err := run(wctx)
	if err != nil {
		s.failed.Inc()
		return nil, resolveWedged(wctx, err)
	}
	s.completed.Inc()
	return p, nil
}

// simResult serves one validated simulation job; /v1/sim and
// /v1/predict's simulation fallback share it.
func (s *Server) simResult(r *http.Request, job simJob) (*api.SimPayload, string, error) {
	return serve(s, r, job.key, s.store, func(ctx context.Context) (*api.SimPayload, error) {
		return s.runSim(ctx, job)
	})
}

// runSim executes one validated simulation job on the engine pool.
func (s *Server) runSim(ctx context.Context, job simJob) (*api.SimPayload, error) {
	results, rep, err := s.execTasks(ctx, []engine.Task{job.task()})
	if err != nil {
		return nil, err
	}
	s.recordSuite(rep)
	tr := results[0]
	return &api.SimPayload{Request: job.req, Ideal: tr.Ideal, Result: tr.Result, Report: tr.Report}, nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	done, ok := s.admitJobRequest(w, r)
	if !ok {
		return
	}
	defer done()

	var req api.AnalyzeRequest
	if !DecodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	job, err := normalizeAnalyze(req)
	if err != nil {
		s.writeError(w, r, fmt.Errorf("%w: %w", errBadRequest, err))
		return
	}

	// A what-if job is a baseline run, a determinism re-run, and one
	// replay per perturbation, all against clones of one cached trace.
	// The whole bundle occupies a single worker slot — it is one job from
	// admission's point of view, like a sweep.
	payload, served, err := serve(s, r, job.key, nil, func(ctx context.Context) (*api.AnalyzePayload, error) {
		return replay.Analyze(ctx, replay.Job{
			Prog:    job.prog,
			Params:  job.params,
			Config:  job.cfg,
			Request: job.req,
			Cache:   s.traceCache,
		})
	})
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	WriteJSON(w, http.StatusOK, api.AnalyzeResponse{AnalyzePayload: payload, Served: served})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	done, ok := s.admitJobRequest(w, r)
	if !ok {
		return
	}
	defer done()

	var req api.SweepRequest
	if !DecodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	job, err := normalizeSweep(req)
	if err != nil {
		s.writeError(w, r, fmt.Errorf("%w: %w", errBadRequest, err))
		return
	}

	payload, served, err := serve(s, r, job.key, s.store, func(ctx context.Context) (*api.SweepPayload, error) {
		return s.runSweep(ctx, job)
	})
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	WriteJSON(w, http.StatusOK, api.SweepResponse{SweepPayload: payload, Served: served})
}

// runSweep executes one validated sweep job: the full benchmark × model
// matrix through core, sharing the server's bounded trace cache so sweeps
// and single simulations memoise the same traces.
func (s *Server) runSweep(ctx context.Context, job sweepJob) (*api.SweepPayload, error) {
	var suiteRep metrics.SuiteReport
	outs, err := core.RunSuiteCtx(ctx, core.Options{
		Scale:   job.req.Scale,
		Seed:    job.req.Seed,
		Models:  job.models,
		Select:  job.sel,
		Workers: s.cfg.Workers,
		Metrics: true,
		OnReport: func(r metrics.SuiteReport) {
			suiteRep = r
		},
		Cache: s.traceCache,
		Chaos: s.chaos,
	})
	if err != nil {
		return nil, err
	}
	s.recordSuite(suiteRep)

	p := &api.SweepPayload{Request: job.req, Report: suiteRep}
	for _, o := range outs {
		out := api.SweepOutcome{
			Name:    o.Name,
			Params:  o.Params,
			Ideal:   o.Ideal,
			Report:  o.Report,
			Results: make(map[string]*machine.Result, len(o.Results)),
		}
		for m, res := range o.Results {
			out.Results[m.String()] = res
		}
		p.Outcomes = append(p.Outcomes, out)
	}
	return p, nil
}

// recordSuite folds one engine run's suite report into the service-level
// metrics.
func (s *Server) recordSuite(rep metrics.SuiteReport) {
	s.simCycles.Add(int64(rep.SimCycles))
	s.schedIt.Add(int64(rep.SchedIters))
	s.schedLeased.Add(int64(rep.SchedLeasedSteps))
	s.schedRollbacks.Add(int64(rep.SchedRollbacks))
	if rep.Generate > 0 {
		s.genTime.Observe(rep.Generate)
	}
	if rep.Simulate > 0 {
		s.simTime.Observe(rep.Simulate)
	}
}
