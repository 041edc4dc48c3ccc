package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"syncsim/internal/api"
	"syncsim/internal/core"
	"syncsim/internal/engine"
	"syncsim/internal/machine"
	"syncsim/internal/metrics"
	"syncsim/internal/workload/suite"
)

// postSim POSTs a /v1/sim body and decodes the response. It reports
// failures with t.Errorf (never Fatalf) so it is safe to call from helper
// goroutines; callers must check resp for nil.
func postSim(t *testing.T, ts *httptest.Server, body string) (api.SimResponse, *http.Response) {
	t.Helper()
	var out api.SimResponse
	resp, err := http.Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("POST /v1/sim: %v", err)
		return out, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read body: %v", err)
		return out, resp
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Errorf("decode %q: %v", raw, err)
		}
	}
	return out, resp
}

// TestEndToEndSim drives a real (small) simulation through the full HTTP
// stack and cross-checks the served result against a direct engine run of
// the same configuration: the service layer must change nothing.
func TestEndToEndSim(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"bench":"Qsort","scale":0.01,"seed":3,"lock":"tts","cons":"wo"}`
	got, resp := postSim(t, ts, body)
	if resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got.Served != "run" {
		t.Errorf("served = %q, want run", got.Served)
	}
	if got.Result == nil || got.Result.RunTime == 0 {
		t.Fatalf("no simulation result in response: %+v", got)
	}
	if got.Request.Lock != "tts" || got.Request.Cons != "wo" || got.Request.NCPU == 0 {
		t.Errorf("request echo not canonicalised: %+v", got.Request)
	}

	// Same configuration, straight through the engine.
	job, err := normalizeSim(api.SimRequest{Bench: "Qsort", Scale: 0.01, Seed: 3, Lock: "tts", Cons: "wo"})
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := engine.New(engine.Config{Workers: 1}).Run(context.Background(), []engine.Task{job.task()})
	if err != nil {
		t.Fatal(err)
	}
	if want := direct[0].Result.RunTime; got.Result.RunTime != want {
		t.Errorf("served RunTime = %d, direct engine run = %d", got.Result.RunTime, want)
	}

	// An identical request is now a result-cache hit.
	again, _ := postSim(t, ts, body)
	if again.Served != "cache" {
		t.Errorf("repeat served = %q, want cache", again.Served)
	}
	if again.Result.RunTime != got.Result.RunTime {
		t.Errorf("cached RunTime = %d, want %d", again.Result.RunTime, got.Result.RunTime)
	}
}

// TestEndToEndSimParallelSched pins the fold of the two retired
// scheduler knobs: "workers" and the "parallel" alias are accepted and
// ignored. A request that sets either is served from the result entry of
// the request that sets neither, and echoes sched "calendar" and no
// workers.
func TestEndToEndSimParallelSched(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	plain, resp := postSim(t, ts, `{"bench":"Qsort","scale":0.01,"seed":3}`)
	if resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("plain: status = %d, want 200", resp.StatusCode)
	}
	if plain.Served != "run" {
		t.Errorf("plain served = %q, want run", plain.Served)
	}
	for _, body := range []string{
		`{"bench":"Qsort","scale":0.01,"seed":3,"workers":4}`,
		`{"bench":"Qsort","scale":0.01,"seed":3,"sched":"parallel","workers":4}`,
	} {
		got, resp := postSim(t, ts, body)
		if resp == nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200", body, resp.StatusCode)
		}
		if got.Served != "cache" {
			t.Errorf("%s: served = %q, want cache (the entry of the plain request)", body, got.Served)
		}
		if got.Request != plain.Request {
			t.Errorf("%s: request echo = %+v, want %+v", body, got.Request, plain.Request)
		}
		if got.Request.Sched != "calendar" || got.Request.Workers != 0 || got.Result.Config.Workers != 0 {
			t.Errorf("%s: echoes sched %q, workers %d, config workers %d; want calendar, 0, 0",
				body, got.Request.Sched, got.Request.Workers, got.Result.Config.Workers)
		}
		if !reflect.DeepEqual(got.Result, plain.Result) {
			t.Errorf("%s: result diverges from the plain request's", body)
		}
	}
}

// TestEndToEndSweep runs sweeps through the service: a one-benchmark,
// one-model sweep has the table-shaped response, and a two-by-two sweep
// equals the library's own suite run (core.RunSuiteCtx, which builds its
// engine tasks independently) outcome by outcome.
func TestEndToEndSweep(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) api.SweepResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
		}
		var out api.SweepResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	out := post(`{"scale":0.01,"only":["Qsort"],"models":["queue"]}`)
	if len(out.Outcomes) != 1 || out.Outcomes[0].Name != "Qsort" {
		t.Fatalf("outcomes = %+v, want exactly Qsort", out.Outcomes)
	}
	res, ok := out.Outcomes[0].Results["queue"]
	if !ok || res == nil || res.RunTime == 0 {
		t.Fatalf("no queue-model result: %+v", out.Outcomes[0].Results)
	}
	if out.Served != "run" {
		t.Errorf("served = %q, want run", out.Served)
	}

	got := post(`{"scale":0.01,"seed":3,"only":["Qsort","Grav"],"models":["wo","queue"]}`)
	sel, err := suite.NewSelection("Qsort", "Grav")
	if err != nil {
		t.Fatal(err)
	}
	models := []core.Model{core.ModelWO, core.ModelQueue}
	want, err := core.RunSuiteCtx(context.Background(), core.Options{Scale: 0.01, Seed: 3, Models: models, Select: sel})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Outcomes) != len(want) {
		t.Fatalf("node has %d outcomes, library %d", len(got.Outcomes), len(want))
	}
	for i, w := range want {
		g := got.Outcomes[i]
		if g.Name != w.Name || g.Params != w.Params {
			t.Errorf("outcome %d: node %s %+v, library %s %+v", i, g.Name, g.Params, w.Name, w.Params)
		}
		sameJSON(t, w.Name+" ideal", g.Ideal, w.Ideal)
		if len(g.Results) != len(models) {
			t.Errorf("%s: node has %d results, want %d", w.Name, len(g.Results), len(models))
		}
		for _, m := range models {
			sameJSON(t, w.Name+"/"+m.String(), g.Results[m.String()], w.Results[m])
		}
	}
}

// sameJSON fails the test unless node and lib encode to the same JSON.
func sameJSON(t *testing.T, what string, node, lib any) {
	t.Helper()
	nj, err := json.Marshal(node)
	if err != nil {
		t.Fatal(err)
	}
	lj, err := json.Marshal(lib)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nj, lj) {
		t.Errorf("%s: node and library differ\n node:    %s\n library: %s", what, nj, lj)
	}
}

// gatedServer installs an execTasks hook that blocks every engine run on a
// gate channel and counts executions.
func gatedServer(cfg Config) (*Server, *atomic.Int64, chan struct{}) {
	s := New(cfg)
	runs := &atomic.Int64{}
	gate := make(chan struct{})
	s.execTasks = func(ctx context.Context, tasks []engine.Task) ([]engine.TaskResult, metrics.SuiteReport, error) {
		runs.Add(1)
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, metrics.SuiteReport{}, ctx.Err()
		}
		return []engine.TaskResult{{Result: &machine.Result{RunTime: 42}}}, metrics.SuiteReport{}, nil
	}
	return s, runs, gate
}

// leakCheck snapshots the goroutine count and registers a cleanup that
// waits (briefly) for the count to fall back, failing with a full stack
// dump if goroutines outlive the test body. Call it FIRST in the test so
// its cleanup runs after every deferred teardown (server Close, httptest
// Close).
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s",
			before, runtime.NumGoroutine(), buf[:n])
	})
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCoalescing proves the single-flight contract: N concurrent identical
// requests cause exactly one engine execution, with one "run" response and
// N-1 "coalesced" ones all carrying the same payload.
func TestCoalescing(t *testing.T) {
	leakCheck(t)
	s, runs, gate := gatedServer(Config{Workers: 2, ResultCacheSize: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job, err := normalizeSim(api.SimRequest{Bench: "Qsort", Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	served := make([]string, n)
	times := make([]uint64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, resp := postSim(t, ts, `{"bench":"Qsort","scale":0.01}`)
			if resp == nil || resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			served[i] = out.Served
			times[i] = out.Result.RunTime
		}(i)
	}

	// Let all N requests join the flight before releasing the one run. A
	// request counts in InFlight from the moment the handler admits it,
	// before it decodes its body and joins, so only the flight's own
	// waiter count says that no request can still start a second run.
	waitFor(t, "all requests joined the flight", func() bool { return s.flights.Waiters(job.key) == n })
	close(gate)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Errorf("engine executions = %d, want exactly 1 for %d identical requests", got, n)
	}
	var ran, coalesced int
	for i, v := range served {
		switch v {
		case "run":
			ran++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("request %d served = %q", i, v)
		}
		if times[i] != 42 {
			t.Errorf("request %d RunTime = %d, want the shared payload (42)", i, times[i])
		}
	}
	if ran != 1 || coalesced != n-1 {
		t.Errorf("served split = %d run / %d coalesced, want 1 / %d", ran, coalesced, n-1)
	}
}

// TestBackpressure fills the admission queue and checks that the next
// distinct request is shed with 429 + Retry-After rather than queued.
func TestBackpressure(t *testing.T) {
	// Workers: 1 and no waiting room: one job in-system, rest rejected.
	s, _, gate := gatedServer(Config{Workers: 1, QueueDepth: -1, ResultCacheSize: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan api.SimResponse, 1)
	go func() {
		out, _ := postSim(t, ts, `{"bench":"Qsort","scale":0.01,"seed":1}`)
		first <- out
	}()
	waitFor(t, "first job to occupy the worker", func() bool { return s.adm.running() == 1 })

	// A *different* job (no coalescing) must be rejected immediately.
	_, resp := postSim(t, ts, `{"bench":"Qsort","scale":0.01,"seed":2}`)
	if resp == nil || resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	close(gate)
	if out := <-first; out.Served != "run" {
		t.Errorf("first job served = %q, want run", out.Served)
	}
	snap := s.reg.Snapshot()
	if snap.Counters["jobs_rejected"] != 1 {
		t.Errorf("jobs_rejected = %d, want 1", snap.Counters["jobs_rejected"])
	}
}

// TestGracefulDrain proves the shutdown contract: once draining, new jobs
// and health checks turn 503, but the job already in flight runs to
// completion and is answered 200, after which Drain returns.
func TestGracefulDrain(t *testing.T) {
	leakCheck(t)
	s, _, gate := gatedServer(Config{Workers: 2, ResultCacheSize: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inFlight := make(chan api.SimResponse, 1)
	status := make(chan int, 1)
	go func() {
		out, resp := postSim(t, ts, `{"bench":"Qsort","scale":0.01}`)
		code := 0
		if resp != nil {
			code = resp.StatusCode
		}
		status <- code
		inFlight <- out
	}()
	waitFor(t, "job to start", func() bool { return s.adm.running() == 1 })

	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}

	// New work is refused while draining...
	_, resp := postSim(t, ts, `{"bench":"Grav","scale":0.01}`)
	if resp == nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new job during drain: status %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status %d, want 503", hresp.StatusCode)
	}

	// ...but the in-flight job completes normally.
	close(gate)
	if code := <-status; code != http.StatusOK {
		t.Fatalf("in-flight job status = %d, want 200 despite drain", code)
	}
	if out := <-inFlight; out.Result == nil || out.Result.RunTime != 42 {
		t.Errorf("in-flight job payload lost during drain: %+v", out)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain after completion: %v", err)
	}
	if n := s.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after drain", n)
	}
}

// TestLeaderDisconnectKeepsFollowers checks the subtle coalescing case:
// the request that started the job hangs up, but a follower is still
// waiting, so the job must not be cancelled.
func TestLeaderDisconnectKeepsFollowers(t *testing.T) {
	leakCheck(t)
	s, runs, gate := gatedServer(Config{Workers: 2, ResultCacheSize: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	leaderCtx, leaderCancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(leaderCtx, http.MethodPost,
		ts.URL+"/v1/sim", strings.NewReader(`{"bench":"Qsort","scale":0.01}`))
	leaderDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		leaderDone <- err
	}()
	waitFor(t, "leader to start the job", func() bool { return runs.Load() == 1 })

	follower := make(chan api.SimResponse, 1)
	go func() {
		out, _ := postSim(t, ts, `{"bench":"Qsort","scale":0.01}`)
		follower <- out
	}()
	waitFor(t, "follower to join", func() bool { return s.InFlight() == 2 })

	leaderCancel()
	if err := <-leaderDone; err == nil {
		t.Error("leader request succeeded despite cancelled context")
	}
	// The follower is still interested: the job must survive and answer.
	close(gate)
	out := <-follower
	if out.Result == nil || out.Result.RunTime != 42 {
		t.Fatalf("follower lost the result after leader disconnect: %+v", out)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("engine executions = %d, want 1", got)
	}
}

// TestRequestValidation covers the 4xx surface.
func TestRequestValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"unknown bench", "/v1/sim", `{"bench":"Nope"}`, http.StatusBadRequest},
		{"missing bench", "/v1/sim", `{}`, http.StatusBadRequest},
		{"unknown field", "/v1/sim", `{"bench":"Qsort","bogus":1}`, http.StatusBadRequest},
		{"trailing data", "/v1/sim", `{"bench":"Qsort"}{"again":true}`, http.StatusBadRequest},
		{"negative scale", "/v1/sim", `{"bench":"Qsort","scale":-1}`, http.StatusBadRequest},
		{"bad lock", "/v1/sim", `{"bench":"Qsort","lock":"spin"}`, http.StatusBadRequest},
		{"bad model", "/v1/sweep", `{"models":["mutex"]}`, http.StatusBadRequest},
		{"bad only", "/v1/sweep", `{"only":["Nope"]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/sim")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sim: status = %d, want 405", resp.StatusCode)
	}
}

// One real /v1/sim run reaches the scheduler counters of /metrics: the
// engine's suite report carries leased steps next to the iterations.
func TestMetricsSchedCounters(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postSim(t, ts, `{"bench":"Qsort","scale":0.01}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct{ Counters map[string]int64 }
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sched_iterations_total", "sched_leased_steps_total"} {
		if doc.Counters[name] <= 0 {
			t.Errorf("%s = %d after one run, want > 0", name, doc.Counters[name])
		}
	}
	if _, ok := doc.Counters["sched_rollbacks_total"]; !ok {
		t.Error("sched_rollbacks_total missing")
	}
}

// TestMetricsEndpoint checks the service counters end to end.
func TestMetricsEndpoint(t *testing.T) {
	s, _, gate := gatedServer(Config{Workers: 2, ResultCacheSize: 8})
	close(gate) // no blocking needed here
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postSim(t, ts, `{"bench":"Qsort","scale":0.01}`)
	postSim(t, ts, `{"bench":"Qsort","scale":0.01}`) // cache hit

	resp, err := http.Get(ts.URL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"jobs_accepted 1", "jobs_completed 1", "result_cache_hits 1", "result_cache_len 1"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("metrics missing %q in:\n%s", want, raw)
		}
	}
}
