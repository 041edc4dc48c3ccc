package fleet

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"syncsim/internal/api"
	"syncsim/internal/client"
	"syncsim/internal/fleet/store"
	"syncsim/internal/machine"
	"syncsim/internal/server"
)

// backend is one live syncsimd under a real http.Server, so tests can
// hard-kill it mid-request (srv.Close aborts the listener AND in-flight
// connections — exactly what a SIGKILL'd process does to its peers).
type backend struct {
	url string
	srv *http.Server
	app *server.Server
}

// startBackend boots a backend on a loopback port; mw, when non-nil,
// wraps the handler (tests use it to gate requests).
func startBackend(t *testing.T, cfg server.Config, mw func(http.Handler) http.Handler) *backend {
	t.Helper()
	app := server.New(cfg)
	t.Cleanup(app.Close)
	h := http.Handler(app.Handler())
	if mw != nil {
		h = mw(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck // returns on Close
	b := &backend{url: "http://" + ln.Addr().String(), srv: srv, app: app}
	t.Cleanup(func() { b.srv.Close() })
	return b
}

// fastPool keeps test failovers snappy: two attempts per backend with
// microsecond backoffs.
func fastPool() client.PoolConfig {
	return client.PoolConfig{
		Client: client.Config{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	}
}

// singleNodeSweep runs the reference sweep on one standalone backend.
func singleNodeSweep(t *testing.T, body string) *api.SweepResponse {
	t.Helper()
	app := server.New(server.Config{Workers: 2})
	defer app.Close()
	ts := httptest.NewServer(app.Handler())
	defer ts.Close()
	return postSweep(t, ts.URL, body)
}

func postSweep(t *testing.T, baseURL, body string) *api.SweepResponse {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, raw)
	}
	var out api.SweepResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// canonicalJSON canonicalises a sweep response and renders it for
// byte-comparison.
func canonicalJSON(t *testing.T, resp *api.SweepResponse) string {
	t.Helper()
	CanonicalizeSweep(resp)
	blob, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestFleetSweepBitIdentical: the tentpole's clean path. A sweep through
// a 3-backend fleet merges to the same canonical bytes as the same sweep
// on a single node, and the routing counters account for every cell.
func TestFleetSweepBitIdentical(t *testing.T) {
	var backends []string
	for i := 0; i < 3; i++ {
		backends = append(backends, startBackend(t, server.Config{Workers: 2}, nil).url)
	}
	coord, err := New(Config{
		Backends:       backends,
		Pool:           fastPool(),
		HealthInterval: time.Hour, // probe once at start; the test controls the rest
		HedgeAfter:     -1,        // the counter invariant below is about the speculation-free path
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	body := `{"scale":0.01,"seed":3}`
	got := postSweep(t, ts.URL, body)
	if got.Served != "run" {
		t.Fatalf("fleet served = %q, want run", got.Served)
	}
	want := singleNodeSweep(t, body)
	if g, w := canonicalJSON(t, got), canonicalJSON(t, want); g != w {
		t.Errorf("fleet sweep != single-node sweep\nfleet:\n%s\nsingle:\n%s", g, w)
	}

	status := coord.Status()
	if status.Sweeps != 1 || status.Cells != 18 {
		t.Errorf("status sweeps/cells = %d/%d, want 1/18", status.Sweeps, status.Cells)
	}
	var routed uint64
	for _, b := range status.Backends {
		routed += b.Routed
		if b.FailedOver != 0 || b.Retried != 0 {
			t.Errorf("backend %s: failed_over %d retried %d on a clean sweep", b.URL, b.FailedOver, b.Retried)
		}
	}
	if routed != 18 {
		t.Errorf("routed total = %d, want 18 (every cell accounted to its primary)", routed)
	}

	// Without a shared store a repeat fans out again; the backends'
	// result caches answer its cells.
	again := postSweep(t, ts.URL, body)
	if again.Served != "run" {
		t.Errorf("repeat served = %q, want run", again.Served)
	}
}

// TestFleetKillBackendMidSweep: the tentpole's proof. A backend is
// hard-killed while it is serving a cell; the coordinator fails the cell
// over along the ring and the finished sweep is still byte-identical to
// a single node's. The victim's first /v1/sim request is gated so the
// kill deterministically lands mid-cell — no sleeps, no races.
func TestFleetKillBackendMidSweep(t *testing.T) {
	// The victim must own at least one cell. Build the ring first (it
	// only depends on the member URLs), find the owner of Qsort's trace
	// key, and gate that backend. Three backends, three candidate URLs —
	// so boot all three, then compute the victim from the real ring.
	var all []*backend
	gates := map[string]*struct {
		hit  chan struct{}
		once sync.Once
	}{}
	for i := 0; i < 3; i++ {
		g := &struct {
			hit  chan struct{}
			once sync.Once
		}{hit: make(chan struct{})}
		b := startBackend(t, server.Config{Workers: 2}, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost {
					g.once.Do(func() { close(g.hit) })
				}
				h.ServeHTTP(w, r)
			})
		})
		gates[b.url] = g
		all = append(all, b)
	}
	var urls []string
	for _, b := range all {
		urls = append(urls, b.url)
	}

	coord, err := New(Config{
		Backends:        urls,
		Pool:            fastPool(),
		HealthInterval:  time.Hour,
		CellConcurrency: 3,
		HedgeAfter:      -1, // this test is about kill-driven failover, not speculation
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	// Any backend will own cells (18 cells over 3 backends); kill the
	// first one the sweep actually reaches.
	body := `{"scale":0.01,"seed":5}`
	type result struct {
		resp *api.SweepResponse
	}
	done := make(chan result, 1)
	go func() {
		done <- result{resp: postSweep(t, ts.URL, body)}
	}()

	// Wait for the first POST to land on any backend, then hard-kill
	// that backend while the sweep is running.
	cases := make([]chan struct{}, len(all))
	for i, b := range all {
		cases[i] = gates[b.url].hit
	}
	var victim *backend
	select {
	case <-cases[0]:
		victim = all[0]
	case <-cases[1]:
		victim = all[1]
	case <-cases[2]:
		victim = all[2]
	case <-time.After(30 * time.Second):
		t.Fatal("no backend ever saw a job request")
	}
	victim.srv.Close() // SIGKILL-equivalent: aborts in-flight connections

	r := <-done
	if t.Failed() {
		t.FailNow() // postSweep already reported the failure
	}
	if r.resp.Served != "run" {
		t.Fatalf("fleet served = %q, want run", r.resp.Served)
	}
	want := singleNodeSweep(t, body)
	if g, w := canonicalJSON(t, r.resp), canonicalJSON(t, want); g != w {
		t.Errorf("post-kill fleet sweep != single-node sweep\nfleet:\n%s\nsingle:\n%s", g, w)
	}

	// The kill must be visible in the fleet metrics: some cell was
	// served by a non-primary backend or re-attempted.
	status := coord.Status()
	var failedOver, retried uint64
	for _, b := range status.Backends {
		failedOver += b.FailedOver
		retried += b.Retried
	}
	if failedOver+retried == 0 {
		t.Errorf("no failover/retry recorded although %s was killed mid-sweep: %+v", victim.url, status.Backends)
	}

	// A second, different sweep with the backend still dead must also
	// complete (the ring routes around the corpse).
	second := postSweep(t, ts.URL, `{"scale":0.01,"seed":6,"only":["Qsort","Grav"]}`)
	if second.Served != "run" {
		t.Errorf("second sweep served = %q, want run", second.Served)
	}
}

// TestFleetSharedStoreServesSweep: with a shared L2, a sweep computed by
// a single backend is answered by the fleet without routing a single
// cell — and vice versa, the fleet's merged sweep primes the store under
// the same key a backend would use.
func TestFleetSharedStoreServesSweep(t *testing.T) {
	disk, err := store.OpenDisk(filepath.Join(t.TempDir(), "l2"))
	if err != nil {
		t.Fatal(err)
	}
	// One standalone backend computes the sweep into the shared store.
	solo := startBackend(t, server.Config{Workers: 2, Store: disk}, nil)
	body := `{"scale":0.01,"seed":9,"only":["Qsort"]}`
	ref := postSweep(t, solo.url, body)
	if ref.Served != "run" {
		t.Fatalf("solo sweep served = %q", ref.Served)
	}

	// A fleet over OTHER backends (no overlap) sees it via L2 alone.
	b1 := startBackend(t, server.Config{Workers: 2}, nil)
	coord, err := New(Config{
		Backends:       []string{b1.url},
		Pool:           fastPool(),
		Store:          disk,
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	got := postSweep(t, ts.URL, body)
	if got.Served != "store" {
		t.Fatalf("fleet served = %q, want store", got.Served)
	}
	if g, w := canonicalJSON(t, got), canonicalJSON(t, ref); g != w {
		t.Errorf("store-served sweep differs from the computing node's:\n%s\nvs\n%s", g, w)
	}
	if st := coord.Status(); st.CacheHits != 1 || st.StoreHits != 0 {
		t.Errorf("cache_hits/store_hits = %d/%d, want 1/0 (a whole sweep is no cell)", st.CacheHits, st.StoreHits)
	}
}

// TestFleetStoreHitCounters: with a shared store, a repeated sweep is
// answered whole from it, which counts one cache hit and no cell; a new
// sweep over cells the backend already stored fans out and counts one
// store hit per cell.
func TestFleetStoreHitCounters(t *testing.T) {
	disk, err := store.OpenDisk(filepath.Join(t.TempDir(), "l2"))
	if err != nil {
		t.Fatal(err)
	}
	b1 := startBackend(t, server.Config{Workers: 2, Store: disk}, nil)
	coord, err := New(Config{
		Backends:       []string{b1.url},
		Pool:           fastPool(),
		Store:          disk,
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	step := func(body, served string, cacheHits, storeHits uint64) {
		t.Helper()
		before := coord.Status()
		if got := postSweep(t, ts.URL, body); got.Served != served {
			t.Fatalf("%s served = %q, want %q", body, got.Served, served)
		}
		after := coord.Status()
		if d := after.CacheHits - before.CacheHits; d != cacheHits {
			t.Errorf("%s: cache_hits rose by %d, want %d", body, d, cacheHits)
		}
		if d := after.StoreHits - before.StoreHits; d != storeHits {
			t.Errorf("%s: store_hits rose by %d, want %d", body, d, storeHits)
		}
	}
	body := `{"scale":0.01,"seed":9,"only":["Qsort"],"models":["queue","tts"]}`
	step(body, "run", 0, 0)
	step(body, "store", 1, 0)
	step(`{"scale":0.01,"seed":9,"only":["Qsort"],"models":["tts"]}`, "run", 0, 1)
}

// TestFleetStatusAndHealth: /v1/fleet/status reports every backend with
// its circuit state, and /healthz degrades only when all backends die.
func TestFleetStatusAndHealth(t *testing.T) {
	b1 := startBackend(t, server.Config{Workers: 1}, nil)
	b2 := startBackend(t, server.Config{Workers: 1}, nil)
	coord, err := New(Config{
		Backends:       []string{b1.url, b2.url},
		Pool:           fastPool(),
		HealthInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	code, raw := get("/v1/fleet/status")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, raw)
	}
	var st api.FleetStatusResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Backends) != 2 || st.Replicas != DefaultReplicas {
		t.Fatalf("status = %+v", st)
	}
	for _, b := range st.Backends {
		if b.Circuit != string(client.CircuitClosed) {
			t.Errorf("backend %s circuit = %q at rest", b.URL, b.Circuit)
		}
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz = %d with live backends", code)
	}

	// Capabilities proxy answers from a backend.
	code, raw = get("/v1/capabilities")
	if code != http.StatusOK {
		t.Fatalf("capabilities = %d: %s", code, raw)
	}
	var caps api.CapabilitiesResponse
	if err := json.Unmarshal(raw, &caps); err != nil {
		t.Fatal(err)
	}
	if len(caps.Benchmarks) != 6 {
		t.Errorf("capabilities benchmarks = %d, want 6", len(caps.Benchmarks))
	}

	// Kill everything: health probes flip, /healthz degrades.
	b1.srv.Close()
	b2.srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _ := get("/healthz"); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet /healthz never degraded after all backends died")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// okPayload fabricates a well-formed payload for one plan cell: correct
// request echo, correct result name — exactly what a healthy backend
// returns, so tests can corrupt one field at a time.
func okPayload(cell server.SweepCell) *api.SimPayload {
	return &api.SimPayload{
		Request: cell.Plan.Request,
		Result:  &machine.Result{Name: cell.Bench},
	}
}

// TestMergeSweepRejectsHoles: a missing, incomplete, or duplicate cell
// set is a merge error, never a silently partial sweep.
func TestMergeSweepRejectsHoles(t *testing.T) {
	plan, err := server.PlanSweep(api.SweepRequest{Scale: 0.05, Seed: 1, Only: []string{"Qsort"}})
	if err != nil {
		t.Fatal(err)
	}
	full := make([]cellResult, len(plan.Cells))
	for i, cell := range plan.Cells {
		full[i] = cellResult{cell: cell, payload: okPayload(cell)}
	}

	if _, err := MergeSweep(plan, full[:len(full)-1]); err == nil {
		t.Error("merge with fewer results than plan cells succeeded")
	}
	hole := append([]cellResult{}, full...)
	hole[0].payload = nil
	if _, err := MergeSweep(plan, hole); err == nil {
		t.Error("merge with nil payload succeeded")
	}
	dup := append([]cellResult{}, full...)
	dup[1] = dup[0] // cell 0 twice, cell 1 absent
	if _, err := MergeSweep(plan, dup); err == nil {
		t.Error("merge with duplicate cell succeeded")
	}
}

// TestMergeSweepEdgePaths: the degenerate shapes — an empty plan merges
// to an empty payload, a single-cell plan merges to exactly one outcome
// with one model — and a backend answering for the wrong cell (wrong
// request echo, or right request but a result named for another
// benchmark) fails the sweep rather than poisoning its bytes.
func TestMergeSweepEdgePaths(t *testing.T) {
	t.Run("empty sweep", func(t *testing.T) {
		p, err := MergeSweep(server.SweepPlan{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Outcomes) != 0 || p.Report.Tasks != 0 {
			t.Errorf("empty merge = %+v", p)
		}
	})

	plan, err := server.PlanSweep(api.SweepRequest{Scale: 0.05, Seed: 1, Only: []string{"Qsort"}})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("single cell", func(t *testing.T) {
		solo := plan
		solo.Cells = plan.Cells[:1]
		p, err := MergeSweep(solo, []cellResult{{cell: solo.Cells[0], payload: okPayload(solo.Cells[0])}})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Outcomes) != 1 || len(p.Outcomes[0].Results) != 1 || p.Report.Tasks != 1 {
			t.Errorf("single-cell merge = %+v", p)
		}
		if p.Outcomes[0].Name != solo.Cells[0].Bench {
			t.Errorf("outcome name = %q", p.Outcomes[0].Name)
		}
	})

	t.Run("wrong request echo", func(t *testing.T) {
		results := make([]cellResult, len(plan.Cells))
		for i, cell := range plan.Cells {
			results[i] = cellResult{cell: cell, payload: okPayload(cell)}
		}
		bad := *results[0].payload
		bad.Request.Seed++ // a payload computed for someone else's cell
		results[0].payload = &bad
		if _, err := MergeSweep(plan, results); err == nil {
			t.Error("merge accepted a payload echoing the wrong request")
		}
	})

	t.Run("wrong result name", func(t *testing.T) {
		results := make([]cellResult, len(plan.Cells))
		for i, cell := range plan.Cells {
			results[i] = cellResult{cell: cell, payload: okPayload(cell)}
		}
		bad := *results[0].payload
		bad.Result = &machine.Result{Name: "Grav"}
		results[0].payload = &bad
		if _, err := MergeSweep(plan, results); err == nil {
			t.Error("merge accepted a result named for another benchmark")
		}
	})
}

// TestFleetCoalescesCells: two concurrent identical /v1/sim requests
// through the coordinator share one cell flight, so the backend runs the
// cell once, carrying the leader's tenant, and the second request counts
// as coalesced.
func TestFleetCoalescesCells(t *testing.T) {
	g := newGate()
	var posts atomic.Int32
	tenants := make(chan string, 2) // room for both requests' POSTs if coalescing fails
	b := startBackend(t, server.Config{Workers: 2}, func(h http.Handler) http.Handler {
		gated := g.middleware(h)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				posts.Add(1)
				tenants <- r.Header.Get(api.HeaderTenant)
			}
			gated.ServeHTTP(w, r)
		})
	})
	defer g.open()
	coord, err := New(Config{
		Backends:       []string{b.url},
		Pool:           fastPool(),
		HealthInterval: time.Hour,
		HedgeAfter:     -1, // one attempt per cell: every backend POST is a cell run
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	body := `{"bench":"Qsort","scale":0.01,"seed":21}`
	plan, err := server.PlanSim(api.SimRequest{Bench: "Qsort", Scale: 0.01, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	codes := make(chan int, 2)
	post := func(tenant string) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sim", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			codes <- 0
			return
		}
		req.Header.Set(api.HeaderTenant, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			codes <- 0
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	go post("alice")
	<-g.hit // the leader's cell is pinned on the backend
	go post("bob")
	deadline := time.Now().Add(10 * time.Second)
	for coord.flights.Waiters(plan.Key) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("the second request never joined the cell flight")
		}
		time.Sleep(time.Millisecond)
	}
	g.open()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("request status = %d, want 200", code)
		}
	}
	if n := posts.Load(); n != 1 {
		t.Errorf("backend received %d cell runs, want 1", n)
	}
	if got := <-tenants; got != "alice" {
		t.Errorf("backend saw tenant %q, want the leader's alice", got)
	}
	if st := coord.Status(); st.Coalesced != 1 {
		t.Errorf("coalesced = %d, want 1", st.Coalesced)
	}
}

// TestFrontDoorsDecodeAlike: syncsimd and the coordinator decode request
// bodies with one decoder, so a malformed body gets the same status from
// either front door.
func TestFrontDoorsDecodeAlike(t *testing.T) {
	const maxBody = 256
	b := startBackend(t, server.Config{Workers: 2, MaxBodyBytes: maxBody}, nil)
	coord, err := New(Config{
		Backends:       []string{b.url},
		Pool:           fastPool(),
		HealthInterval: time.Hour,
		MaxBodyBytes:   maxBody,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"unknown field", "/v1/sim", `{"bench":"Qsort","bogus":1}`, http.StatusBadRequest},
		{"trailing data", "/v1/sim", `{"bench":"Qsort","scale":0.01}{"again":true}`, http.StatusBadRequest},
		{"trailing data", "/v1/sweep", `{"scale":0.01,"only":["Qsort"]} []`, http.StatusBadRequest},
		{"body too large", "/v1/sim", `{"bench":"Qsort","lock":"` + strings.Repeat("x", maxBody) + `"}`, http.StatusRequestEntityTooLarge},
		{"body too large", "/v1/sweep", `{"only":["` + strings.Repeat("x", maxBody) + `"]}`, http.StatusRequestEntityTooLarge},
	}
	for _, door := range []struct{ name, url string }{{"syncsimd", b.url}, {"coordinator", ts.URL}} {
		for _, tc := range cases {
			resp, err := http.Post(door.url+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s %s: status = %d, want %d", door.name, tc.path, tc.name, resp.StatusCode, tc.want)
			}
		}
	}
}
