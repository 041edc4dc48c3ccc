package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"syncsim/internal/api"
	"syncsim/internal/chaos"
	"syncsim/internal/client"
	"syncsim/internal/server"
)

// gate blocks a backend's first POST until released, and signals when
// that POST arrives — the no-sleep lever the churn tests use to pin
// "mid-sweep" down to a happens-before edge.
type gate struct {
	hit     chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGate() *gate {
	return &gate{hit: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			g.once.Do(func() {
				close(g.hit)
				<-g.release
			})
		}
		h.ServeHTTP(w, r)
	})
}

func (g *gate) open() {
	select {
	case <-g.release:
	default:
		close(g.release)
	}
}

// postAdmin POSTs a fleet admin-plane request and decodes the response.
func postAdmin(t *testing.T, baseURL, path, backend string) (api.FleetMembershipResponse, int) {
	t.Helper()
	body, _ := json.Marshal(api.FleetJoinRequest{Backend: backend})
	resp, err := http.Post(baseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out api.FleetMembershipResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decode %s response %q: %v", path, raw, err)
		}
	}
	return out, resp.StatusCode
}

// waitEpoch polls until the coordinator's membership epoch reaches want.
// The poll is a liveness deadline, not a correctness sleep: the epoch
// swap is atomic and the assertion is on the value, not the timing.
func waitEpoch(t *testing.T, coord *Coordinator, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for coord.Epoch() < want {
		if time.Now().After(deadline) {
			t.Fatalf("epoch never reached %d (at %d)", want, coord.Epoch())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetJoinMidSweep: a backend joins through the admin plane while a
// sweep is in flight (a cell is pinned mid-execution by a gate when the
// join lands), and the finished sweep is byte-identical to a single
// node's. The join advances the epoch and the ring immediately; the
// pinned cell keeps the epoch it captured.
func TestFleetJoinMidSweep(t *testing.T) {
	g1, g2 := newGate(), newGate()
	b1 := startBackend(t, server.Config{Workers: 2}, g1.middleware)
	b2 := startBackend(t, server.Config{Workers: 2}, g2.middleware)
	spare := startBackend(t, server.Config{Workers: 2}, nil)

	coord, err := New(Config{
		Backends:       []string{b1.url, b2.url},
		Pool:           fastPool(),
		HealthInterval: time.Hour,
		HedgeAfter:     -1, // the gate must pin its cell, not race a hedge
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	body := `{"scale":0.01,"seed":7,"only":["Qsort","Grav","Pdsa","FullConn"]}`
	done := make(chan *api.SweepResponse, 1)
	go func() { done <- postSweep(t, ts.URL, body) }()

	// Which member owns the sweep's route keys depends on the ring's
	// (random httptest) URLs, so both are gated and the cell pins
	// whichever it reaches first; the other member runs free.
	var pinned *gate
	select {
	case <-g1.hit:
		pinned = g1
		g2.open()
	case <-g2.hit:
		pinned = g2
		g1.open()
	case <-time.After(30 * time.Second):
		t.Fatal("no backend ever saw a job request")
	}

	// The sweep is now provably mid-flight. Join the spare.
	memb, code := postAdmin(t, ts.URL, "/v1/fleet/join", spare.url)
	if code != http.StatusOK {
		t.Fatalf("join = %d", code)
	}
	if memb.Epoch != 1 || len(memb.Members) != 3 {
		t.Fatalf("join response = %+v, want epoch 1, 3 members", memb)
	}
	// Joining an existing member is an idempotent no-op.
	if again, code := postAdmin(t, ts.URL, "/v1/fleet/join", spare.url); code != http.StatusOK || again.Epoch != 1 {
		t.Errorf("idempotent re-join = %d, %+v", code, again)
	}

	pinned.open()
	got := <-done
	if t.Failed() {
		t.FailNow()
	}
	if got.Served != "run" {
		t.Fatalf("fleet served = %q, want run", got.Served)
	}
	want := singleNodeSweep(t, body)
	if g, w := canonicalJSON(t, got), canonicalJSON(t, want); g != w {
		t.Errorf("join-mid-sweep fleet sweep != single-node sweep\nfleet:\n%s\nsingle:\n%s", g, w)
	}

	status := coord.Status()
	if status.Epoch != 1 || len(status.Backends) != 3 {
		t.Errorf("status epoch/backends = %d/%d, want 1/3", status.Epoch, len(status.Backends))
	}

	// A fresh sweep on the grown ring also matches a single node —
	// the joiner now owns (and serves) its share of route keys.
	body2 := `{"scale":0.01,"seed":8,"only":["Grav","Pdsa","Topopt"]}`
	got2 := postSweep(t, ts.URL, body2)
	want2 := singleNodeSweep(t, body2)
	if g, w := canonicalJSON(t, got2), canonicalJSON(t, want2); g != w {
		t.Errorf("post-join sweep != single-node sweep")
	}
}

// TestFleetLeaveDrainMidSweep: a backend leaves through the admin plane
// while one of its cells is provably in flight. The leave swaps the ring
// first, then drains: it must not return before the pinned cell
// finishes, the pinned cell's result must still be merged, and the
// finished sweep is byte-identical to a single node's.
func TestFleetLeaveDrainMidSweep(t *testing.T) {
	var all []*backend
	gates := map[string]*gate{}
	for i := 0; i < 3; i++ {
		g := newGate()
		b := startBackend(t, server.Config{Workers: 2}, g.middleware)
		gates[b.url] = g
		all = append(all, b)
	}
	urls := []string{all[0].url, all[1].url, all[2].url}

	coord, err := New(Config{
		Backends:       urls,
		Pool:           fastPool(),
		HealthInterval: time.Hour,
		HedgeAfter:     -1, // the gate must pin its cell, not race a hedge
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	// Qsort is left out: its workload floor makes each of its cells a
	// long simulation, and under the race detector on a small host the
	// victim's pinned Qsort cells outlast the default DrainTimeout.
	body := `{"scale":0.01,"seed":9,"only":["Pdsa","Grav","Topopt","Pverify"]}`
	done := make(chan *api.SweepResponse, 1)
	go func() { done <- postSweep(t, ts.URL, body) }()

	// The victim is whichever backend a cell reaches first; its gate now
	// pins that cell in flight. The other two run free.
	var victim *backend
	select {
	case <-gates[all[0].url].hit:
		victim = all[0]
	case <-gates[all[1].url].hit:
		victim = all[1]
	case <-gates[all[2].url].hit:
		victim = all[2]
	case <-time.After(30 * time.Second):
		t.Fatal("no backend ever saw a job request")
	}
	for _, b := range all {
		if b != victim {
			gates[b.url].open()
		}
	}

	// Leave must block in drain while the victim's cell is pinned, so it
	// runs in a goroutine; the epoch advancing proves the ring swapped.
	leaveDone := make(chan api.FleetMembershipResponse, 1)
	go func() {
		memb, code := postAdmin(t, ts.URL, "/v1/fleet/leave", victim.url)
		if code != http.StatusOK {
			t.Errorf("leave = %d", code)
		}
		leaveDone <- memb
	}()
	waitEpoch(t, coord, 1)

	// Ring is swapped but the victim's cell is still pinned: the leave
	// must be sitting in drain, not done.
	select {
	case memb := <-leaveDone:
		t.Fatalf("leave returned (%+v) while the victim still had a cell in flight", memb)
	default:
	}

	gates[victim.url].open()
	memb := <-leaveDone
	if t.Failed() {
		t.FailNow()
	}
	if !memb.Drained {
		t.Errorf("leave reported drained=false although the pinned cell finished")
	}
	if memb.Epoch != 1 || len(memb.Members) != 2 {
		t.Errorf("leave response = %+v, want epoch 1, 2 members", memb)
	}

	got := <-done
	if t.Failed() {
		t.FailNow()
	}
	if got.Served != "run" {
		t.Fatalf("fleet served = %q, want run", got.Served)
	}
	want := singleNodeSweep(t, body)
	if g, w := canonicalJSON(t, got), canonicalJSON(t, want); g != w {
		t.Errorf("leave-mid-sweep fleet sweep != single-node sweep\nfleet:\n%s\nsingle:\n%s", g, w)
	}

	// Leaving a non-member 404s; draining the fleet to nothing 409s.
	if _, code := postAdmin(t, ts.URL, "/v1/fleet/leave", victim.url); code != http.StatusNotFound {
		t.Errorf("re-leave of departed member = %d, want 404", code)
	}
	survivors := coord.Ring().Members()
	if _, code := postAdmin(t, ts.URL, "/v1/fleet/leave", survivors[0]); code != http.StatusOK {
		t.Fatalf("leave of %s failed", survivors[0])
	}
	if _, code := postAdmin(t, ts.URL, "/v1/fleet/leave", survivors[1]); code != http.StatusConflict {
		t.Errorf("leave of the last member = %d, want 409", code)
	}
}

// TestFleetHedgeRescuesSlowBackend: the owner of a sweep's cells is
// artificially slowed (chaos `slow` point, every job stalled well past
// the hedge budget); the coordinator hedges the cells to the next
// ring-order backend, the fast backend's answers win, and the merged
// sweep is still byte-identical to a single node's.
func TestFleetHedgeRescuesSlowBackend(t *testing.T) {
	plane := chaos.New(1)
	plane.Set(chaos.Slowdown, 1)
	plane.SetDelay(400 * time.Millisecond)
	slow := startBackend(t, server.Config{Workers: 2, Chaos: plane}, nil)

	// Pick a (seed, benchmark) whose ring owner is the slow backend, so
	// its cells' primary attempts are guaranteed to stall and the hedges
	// are what completes them. Ownership depends on the ring's (random)
	// URLs, so scan seeds until one routes to the slow member. The route
	// keys of nearby seeds hash close together on the ring, so for about
	// one URL pair in fifty none of 20 seeds' keys does: the fast backend
	// is then replaced by one on a fresh port.
	var fast *backend
	var bench string
	var seed int64
	for try := 0; try < 5 && bench == ""; try++ {
		fast = startBackend(t, server.Config{Workers: 2}, nil)
		ring, err := NewRing([]string{slow.url, fast.url}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for s := int64(1); s <= 20 && bench == ""; s++ {
			plan, err := server.PlanSweep(api.SweepRequest{Scale: 0.01, Seed: s})
			if err != nil {
				t.Fatal(err)
			}
			for _, cell := range plan.Cells {
				if ring.Owner(RouteKey(cell.Plan.Route)) == slow.url {
					bench, seed = cell.Bench, s
					break
				}
			}
		}
	}
	if bench == "" {
		t.Fatal("no route key landed on the slow backend across 20 seeds and 5 fast backends")
	}

	coord, err := New(Config{
		Backends:       []string{slow.url, fast.url},
		Pool:           fastPool(),
		HealthInterval: time.Hour,
		HedgeAfter:     25 * time.Millisecond,
		HedgeMin:       time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"scale":0.01,"seed":%d,"only":[%q]}`, seed, bench)
	got := postSweep(t, ts.URL, body)
	if got.Served != "run" {
		t.Fatalf("fleet served = %q, want run", got.Served)
	}
	want := singleNodeSweep(t, body)
	if g, w := canonicalJSON(t, got), canonicalJSON(t, want); g != w {
		t.Errorf("hedged sweep != single-node sweep\nfleet:\n%s\nsingle:\n%s", g, w)
	}

	status := coord.Status()
	if status.Hedged < 1 {
		t.Errorf("hedged = %d, want ≥ 1 (every primary stalled 400ms against a 25ms budget)", status.Hedged)
	}
	if status.HedgeWins < 1 {
		t.Errorf("hedge_wins = %d, want ≥ 1 (the fast backend must have answered first)", status.HedgeWins)
	}
	var perBackend uint64
	for _, b := range status.Backends {
		perBackend += b.Hedged
	}
	if perBackend != status.Hedged {
		t.Errorf("per-backend hedged sum %d != fleet hedged %d", perBackend, status.Hedged)
	}

	// The slow backend was never wrong, only outraced: once its cancelled
	// attempts have reported back, its circuit must still be closed.
	if !coord.members.drain(context.Background(), slow.url, 30*time.Second) {
		t.Fatal("the slow backend's cancelled attempts never finished")
	}
	for _, b := range coord.Status().Backends {
		if b.URL == slow.url && b.Circuit != string(client.CircuitClosed) {
			t.Errorf("slow backend circuit = %q after losing its hedges, want closed", b.Circuit)
		}
	}
}

// TestFleetHedgeObservedP95: after enough successful cells, the hedge
// budget follows the backend's windowed p95 (floored at HedgeMin), and
// /v1/fleet/status exposes it.
func TestFleetHedgeObservedP95(t *testing.T) {
	b := startBackend(t, server.Config{Workers: 2}, nil)
	coord, err := New(Config{
		Backends:       []string{b.url},
		Pool:           fastPool(),
		HealthInterval: time.Hour,
		HedgeAfter:     777 * time.Millisecond,
		HedgeMin:       50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Before any samples: the static fallback.
	if got := c0budget(coord, b.url); got != 777*time.Millisecond {
		t.Fatalf("cold hedge budget = %v, want the HedgeAfter fallback", got)
	}
	// Feed the digest fast successes; the budget becomes max(p95, HedgeMin).
	for i := 0; i < 16; i++ {
		coord.pool.Observe(b.url, time.Millisecond)
	}
	if got := c0budget(coord, b.url); got != 50*time.Millisecond {
		t.Errorf("hedge budget = %v, want the 50ms HedgeMin floor over a ~1ms p95", got)
	}
	for i := 0; i < 64; i++ {
		coord.pool.Observe(b.url, 200*time.Millisecond)
	}
	if got := c0budget(coord, b.url); got != 200*time.Millisecond {
		t.Errorf("hedge budget = %v, want the observed 200ms p95", got)
	}
	st := coord.Status()
	if len(st.Backends) != 1 || st.Backends[0].P95Millis != 200 {
		t.Errorf("status p95_ms = %+v, want 200", st.Backends)
	}
}

func c0budget(c *Coordinator, backend string) time.Duration { return c.hedgeBudget(backend) }

// TestFleetQuotaEnforcement: the coordinator's own admission quota. The
// quota'd tenant's over-budget request is shed with 429 + Retry-After
// before any planning or routing; the other tenant and untenanted
// traffic are untouched; the clock refills the bucket.
func TestFleetQuotaEnforcement(t *testing.T) {
	b := startBackend(t, server.Config{Workers: 2}, nil)
	now := time.Unix(9000, 0)
	coord, err := New(Config{
		Backends:       []string{b.url},
		Pool:           fastPool(),
		HealthInterval: time.Hour,
		Quotas:         map[string]server.Quota{"alice": {RPS: 1, Burst: 2}},
		QuotaNow:       func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	post := func(tenant string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep",
			strings.NewReader(`{"scale":0.01,"seed":11,"only":["Qsort"]}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set(api.HeaderTenant, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp
	}

	for i := 0; i < 2; i++ {
		if resp := post("alice"); resp.StatusCode != http.StatusOK {
			t.Fatalf("alice in-budget request %d = %d", i, resp.StatusCode)
		}
	}
	over := post("alice")
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over-budget request = %d, want 429", over.StatusCode)
	}
	if ra := over.Header.Get(api.HeaderRetryAfter); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive whole-seconds hint", ra)
	}
	for i := 0; i < 4; i++ {
		if resp := post("bob"); resp.StatusCode != http.StatusOK {
			t.Fatalf("bob request %d = %d although bob has no quota", i, resp.StatusCode)
		}
		if resp := post(""); resp.StatusCode != http.StatusOK {
			t.Fatalf("untenanted request %d = %d", i, resp.StatusCode)
		}
	}
	now = now.Add(2 * time.Second)
	if resp := post("alice"); resp.StatusCode != http.StatusOK {
		t.Errorf("alice rejected after refill: %d", resp.StatusCode)
	}
	if st := coord.Status(); st.Throttled != 1 {
		t.Errorf("throttled = %d, want 1", st.Throttled)
	}
}
