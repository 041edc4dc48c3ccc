package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"sync"
	"time"

	"syncsim/internal/api"
	"syncsim/internal/client"
	"syncsim/internal/fleet"
	"syncsim/internal/fleet/store"
	"syncsim/internal/server"
	"syncsim/internal/workload"
	"syncsim/internal/workload/suite"
)

const (
	fleetScale    = 0.005
	fleetBackends = 3
	fleetSeqLen   = 2000
	// recentSent bounds how far back a repeated sweep reaches, inside the
	// coordinator's 64-entry sweep LRU.
	recentSent = 32
	// fleetHeapOps is the sweep after which peak_heap_mib is read: whole
	// blocks of fleetDeck, so exactly 12 cold sweeps have run. Their 60
	// traces and the warm-up's 5 stay below each backend's 64-entry trace
	// cache even when two backends take all of them, so no cache has
	// evicted yet and the reading does not depend on how hedging and
	// failover spread the cells (a window sends ~200 sweeps).
	fleetHeapOps = 60
	// A subset sweep is subsetBenches benchmarks × subsetModels models, so
	// every warm sweep moves a payload of the same size.
	subsetBenches = 2
	subsetModels  = 2
)

// fleetDeck fixes the class proportions of the sweep sequence. They are
// not taken from measured traffic: repeated sweeps (sweep-LRU hits) are the
// fastest and subsets the next, so with 20% repeated below 60% subsets the
// median sweep falls at the middle of the subset class rather than where
// the two classes overlap. fleet.sweep_lru_hit_ratio therefore reads back
// the deck's repeated share; the LRU's saving per hit is the difference of
// sweep_subset_ms.p50 and sweep_repeated_ms.p50.
var fleetDeck = []string{"cold", "cold", "repeated", "repeated", "subset", "subset", "subset", "subset", "subset", "subset"}

type fleetItem struct {
	class string
	req   api.SweepRequest
}

// fleetMix is the seed's whole input: the warm-up sweep and the sequence.
type fleetMix struct {
	warm api.SweepRequest
	seq  []fleetItem
}

func newFleetMix(rng *rand.Rand) *fleetMix {
	next := mixSeedBase + rng.Int64N(1<<40)
	cold := func() api.SweepRequest {
		next++
		return api.SweepRequest{Scale: fleetScale, Seed: next, Only: serveBenches}
	}
	m := &fleetMix{warm: cold()}
	swept := []api.SweepRequest{m.warm}
	subset := func() api.SweepRequest {
		base := swept[rng.IntN(len(swept))]
		return api.SweepRequest{Scale: base.Scale, Seed: base.Seed,
			Only: pick(rng, serveBenches, subsetBenches), Models: pick(rng, modelNames, subsetModels)}
	}
	sent := []api.SweepRequest{subset()}
	deck := append([]string(nil), fleetDeck...)
	for len(m.seq) < fleetSeqLen {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, class := range deck {
			var req api.SweepRequest
			switch class {
			case "cold":
				req = cold()
				swept = append(swept, req)
			case "repeated":
				req = sent[len(sent)-1-rng.IntN(min(recentSent, len(sent)))]
			case "subset":
				req = subset()
				sent = append(sent, req)
			}
			m.seq = append(m.seq, fleetItem{class: class, req: req})
		}
	}
	return m
}

// pick returns n distinct random elements of xs, in xs's order.
func pick(rng *rand.Rand, xs []string, n int) []string {
	chosen := map[int]bool{}
	for _, i := range rng.Perm(len(xs))[:n] {
		chosen[i] = true
	}
	var out []string
	for i, x := range xs {
		if chosen[i] {
			out = append(out, x)
		}
	}
	return out
}

// storeTimes collects store call latencies across wrappers.
type storeTimes struct {
	mu         sync.Mutex
	gets, puts []float64 // microseconds
}

// timedStore wraps the shared store.Disk with one span per call, parented
// on the handler span its owner has open. Untraced runs pass the Disk
// itself.
type timedStore struct {
	inner store.Store
	rec   *recorder
	own   *owner
	times *storeTimes
}

func (t *timedStore) record(name string, start int64) {
	end := t.rec.now()
	ref := t.own.current()
	t.rec.add(span{ID: t.rec.ids.Add(1), Parent: ref.id, Req: ref.req, Layer: "store", Name: name, Start: start, End: end})
	us := float64(end-start) / 1e3
	t.times.mu.Lock()
	if name == "Get" {
		t.times.gets = append(t.times.gets, us)
	} else {
		t.times.puts = append(t.times.puts, us)
	}
	t.times.mu.Unlock()
}

func (t *timedStore) Get(key string) ([]byte, bool) {
	start := t.rec.now()
	b, ok := t.inner.Get(key)
	t.record("Get", start)
	return b, ok
}

func (t *timedStore) Put(key string, blob []byte) {
	start := t.rec.now()
	t.inner.Put(key, blob)
	t.record("Put", start)
}

// fleetSUT is one booted fleet: three stored backends behind a
// coordinator, each on its own loopback port.
type fleetSUT struct {
	dir      string
	backends []*server.Server
	bls      []*listener
	coord    *fleet.Coordinator
	cl       *listener
	cli      *client.Client
	times    *storeTimes
}

// close stops whatever part of the fleet has been booted.
func (s *fleetSUT) close() {
	if s.cl != nil {
		s.cl.close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for i := range s.bls {
		s.bls[i].close()
		s.backends[i].Close()
	}
	os.RemoveAll(s.dir)
}

func bootFleet(ctx context.Context, e *env, m *fleetMix) (*fleetSUT, error) {
	dir, err := os.MkdirTemp(e.scratch, "store-")
	if err != nil {
		return nil, err
	}
	s := &fleetSUT{dir: dir, times: &storeTimes{}}
	disk, err := store.OpenDisk(dir)
	if err != nil {
		s.close()
		return nil, err
	}
	coordOwner := newOwner()
	storeFor := func(own *owner) store.Store {
		if e.rec == nil {
			return disk
		}
		return &timedStore{inner: disk, rec: e.rec, own: own, times: s.times}
	}
	var urls []string
	for i := 0; i < fleetBackends; i++ {
		own := newOwner()
		srv := server.New(server.Config{Store: storeFor(own)})
		var h http.Handler = srv.Handler()
		if e.rec != nil {
			h = e.rec.middleware(own, coordOwner, func(string) string { return "server" }, h)
		}
		ln, err := serve(h)
		if err != nil {
			srv.Close()
			s.close()
			return nil, err
		}
		s.backends = append(s.backends, srv)
		s.bls = append(s.bls, ln)
		urls = append(urls, ln.url)
	}
	coord, err := fleet.New(fleet.Config{Backends: urls, Store: storeFor(coordOwner)})
	if err != nil {
		s.close()
		return nil, err
	}
	s.coord = coord
	var h http.Handler = coord.Handler()
	if e.rec != nil {
		h = e.rec.middleware(coordOwner, nil, func(string) string { return "fleet" }, h)
	}
	if s.cl, err = serve(h); err != nil {
		s.close()
		return nil, err
	}
	s.cli = client.New(s.cl.url, client.Config{HTTPClient: httpClient(e.rec)})
	if _, err := s.cli.Sweep(ctx, m.warm); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return s, nil
}

// runFleetSweep drives one closed-loop client against a coordinator in
// front of three backends sharing one disk store.
func runFleetSweep(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	m := newFleetMix(e.rng("fleet-sweep/requests"))

	sut, setup, err := setUp(e, o, func() (*fleetSUT, error) { return bootFleet(ctx, e, m) })
	if err != nil {
		return nil, err
	}
	defer sut.close()
	o.e2e["setup_s"] = setup

	before := sut.coord.Status()
	heap := newHeapProbe(fleetHeapOps)
	mt := startMeter()
	ops := closedLoop(ctx, e.rec, e.window, 1, len(fleetDeck),
		func(c, i int) int { return 0 },
		func(c, i int) string { return m.seq[i].class },
		func(ctx context.Context, c, i int) (any, error) { return sut.cli.Sweep(ctx, m.seq[i].req) },
		func(resp any, err error) any {
			heap.opDone()
			if err != nil {
				return nil
			}
			r := resp.(*api.SweepResponse)
			kept := sweepKept{served: r.Served}
			fleet.CanonicalizeSweep(r)
			kept.canonical = hashString(mustJSON(r))
			return kept
		})
	wall, cpu := mt.stop(o, "window")
	o.e2e["peak_heap_mib"] = heap.finish()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	after := sut.coord.Status()

	var all, cold, warm latencies
	byClass := map[string]latencies{}
	var retries int32
	for _, op := range ops {
		o.attempted++
		if op.failed() {
			o.failed++
			o.notef("FAILED %s sweep (item %d): err=%v, non-2xx attempts=%d", op.class, op.index, op.err, op.stats.bad.Load())
		}
		retries += op.stats.attempts.Load() - 1
		all.add(op.latency)
		l := byClass[op.class]
		l.add(op.latency)
		byClass[op.class] = l
		if op.class == "cold" {
			cold.add(op.latency)
		} else {
			warm.add(op.latency)
		}
	}
	chk, err := checkFleet(ctx, m, ops)
	if err != nil {
		return nil, err
	}
	o.failed += chk.mismatches
	o.notes = append(o.notes, chk.notes...)

	// Each block of fleetDeck sweeps (two cold, eight warm) is one
	// measurement: its processor time, and its cold sweeps' events per
	// processor second. Medians over the window's blocks keep a block in
	// which a backend's circuit opened from setting the run's figures.
	var blockMs, blockRate []float64
	prev, events := mt.cpu0, 0.0
	for i, op := range ops { // one client: ops are in sequence order
		events += chk.opEvents[op.index]
		if (i+1)%len(fleetDeck) == 0 {
			c := op.cpu - prev
			blockMs = append(blockMs, float64(c)/float64(time.Millisecond))
			blockRate = append(blockRate, events/c.Seconds()/1e6)
			prev, events = op.cpu, 0
		}
	}
	secs := wall.Seconds()
	o.e2e["sim_mevents_per_cpu_s"] = median(blockRate)
	o.e2e["cpu_ms_per_op"] = median(blockMs) / float64(len(fleetDeck))
	o.notef("%d blocks of %d sweeps: cpu per block p50 %.1f ms (%.1f-%.1f); %.3f Mevents/cpu_s over the window",
		len(blockMs), len(fleetDeck), median(blockMs), quantile(blockMs, 0), quantile(blockMs, 1), chk.simEvents/cpu.Seconds()/1e6)
	o.layer["sim_mevents_per_s"] = chk.simEvents / secs / 1e6
	o.layer["ops_per_s"] = float64(len(ops)) / secs
	o.layer["op_ms.p50"] = median(all)
	o.setTail(o.layer, "op_ms.tail", all)
	o.rate = ratio(float64(len(ops)), cpu.Seconds())
	o.answers = chk.answers

	o.layer["sweep_cold_s.p50"] = median(cold) / 1000
	o.layer["sweep_warm_ms.p50"] = median(warm)
	o.setTail(o.layer, "sweep_warm_ms.tail", warm)
	o.layer["sweep_repeated_ms.p50"] = median(byClass["repeated"])
	o.layer["sweep_subset_ms.p50"] = median(byClass["subset"])
	o.layer["client.retries"] = float64(retries)
	d := func(a, b uint64) float64 { return float64(a - b) }
	sweeps, cells := d(after.Sweeps, before.Sweeps), d(after.Cells, before.Cells)
	hedged := d(after.Hedged, before.Hedged)
	o.layer["fleet.sweep_lru_hit_ratio"] = ratio(d(after.CacheHits, before.CacheHits), sweeps)
	o.layer["fleet.cell_store_hit_ratio"] = ratio(d(after.StoreHits, before.StoreHits), cells)
	o.layer["fleet.hedges_per_cell"] = ratio(hedged, cells)
	o.layer["fleet.hedge_win_ratio"] = ratio(d(after.HedgeWins, before.HedgeWins), hedged)
	var routed []float64
	var maxR, sumR float64
	for i, b := range after.Backends {
		r := float64(b.Routed)
		if i < len(before.Backends) {
			r -= float64(before.Backends[i].Routed)
		}
		routed = append(routed, r)
		maxR = max(maxR, r)
		sumR += r
	}
	o.layer["fleet.cell_skew"] = ratio(maxR, sumR/float64(len(routed)))

	o.notef("%d sweeps in %.2fs: %s", len(ops), secs, all.describe())
	o.notef("  cold %s", cold.describe())
	o.notef("  warm (repeated+subset) %s", warm.describe())
	o.notef("    repeated %s", byClass["repeated"].describe())
	o.notef("    subset   %s", byClass["subset"].describe())
	o.notef("coordinator: %v sweeps, %v cells, %v sweep-LRU hits, %v cell store hits, %v hedged, %v hedge wins, routed per backend %v",
		sweeps, cells, d(after.CacheHits, before.CacheHits), d(after.StoreHits, before.StoreHits), hedged, d(after.HedgeWins, before.HedgeWins), routed)

	if e.rec != nil {
		fleetSpans(e.rec, ops, sut.times, o)
	}
	return o, nil
}

// sweepKept is what the checks need of a fleet answer: how it was served
// and the hash of its canonical bytes.
type sweepKept struct {
	served, canonical string
}

type fleetCheck struct {
	mismatches int
	notes      []string
	answers    map[string]string
	simEvents  float64
	opEvents   map[int]float64 // simulated events by op index (cold sweeps served "run")
}

// checkFleet sends every distinct sweep of the run to one reference
// syncsimd and demands the canonicalised bytes equal the fleet's.
func checkFleet(ctx context.Context, m *fleetMix, ops []op) (*fleetCheck, error) {
	ck := &fleetCheck{answers: map[string]string{}, opEvents: map[int]float64{}}
	// An unbounded trace cache keeps every seed's traces for the subset
	// references and the event census; the reference is the checker, not
	// the measured system.
	ref := server.New(server.Config{TraceCacheCap: -1})
	defer ref.Close()
	ln, err := serve(ref.Handler())
	if err != nil {
		return nil, err
	}
	defer ln.close()
	cli := client.New(ln.url, client.Config{})
	want := map[string]string{}
	events := map[string]float64{} // bench/seed → trace events
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		req := m.seq[op.index].req
		key := mustJSON(req)
		if _, ok := want[key]; !ok {
			resp, err := cli.Sweep(ctx, req)
			if err != nil {
				return nil, fmt.Errorf("reference sweep: %w", err)
			}
			fleet.CanonicalizeSweep(resp)
			want[key] = hashString(mustJSON(resp))
		}
		got := op.resp.(sweepKept)
		if got.canonical != want[key] {
			ck.mismatches++
			ck.notes = append(ck.notes, fmt.Sprintf("MISMATCH %s sweep (item %d): canonical bytes differ from one syncsimd", op.class, op.index))
			continue
		}
		ck.answers[key] = want[key]
		if op.class != "cold" || got.served != "run" {
			continue
		}
		for _, b := range req.Only {
			k := fmt.Sprintf("%s/%d", b, req.Seed)
			if _, ok := events[k]; !ok {
				bench, err := suite.ByName(b)
				if err != nil {
					return nil, err
				}
				set, _, _, err := ref.TraceCache().Get(ctx, bench.Program, workload.Params{Scale: req.Scale, Seed: req.Seed}, nil)
				if err != nil {
					return nil, err
				}
				n, _ := set.Events()
				events[k] = float64(n)
			}
			ck.simEvents += events[k] * float64(len(modelNames))
			ck.opEvents[op.index] += events[k] * float64(len(modelNames))
		}
	}
	return ck, nil
}

// fleetSpans derives the fleet-sweep per-layer metrics from the spans.
func fleetSpans(rec *recorder, ops []op, times *storeTimes, o *outcome) {
	spans := rec.snapshot()
	self := selfTimes(spans)
	var client, coord latencies
	for _, s := range spans {
		switch s.Layer {
		case "client":
			client.add(self[s.ID])
		case "fleet":
			coord.add(self[s.ID])
		}
	}
	o.layer["client.self_ms.p50"] = median(client)
	o.layer["fleet.self_ms.p50"] = median(coord)
	times.mu.Lock()
	o.layer["store.get_us.p50"] = median(times.gets)
	o.layer["store.put_us.p50"] = median(times.puts)
	times.mu.Unlock()
	classOf, warmOf := map[uint64]string{}, map[uint64]string{}
	for _, op := range ops {
		classOf[op.req] = op.class
		if op.class != "cold" {
			warmOf[op.req] = "warm"
		}
	}
	o.notef("warm-sweep self time by layer: %s", formatShares(classShares(spans, warmOf, "warm")))
	for _, c := range []string{"repeated", "subset", "cold"} {
		o.notef("%s-sweep self time by layer: %s", c, formatShares(classShares(spans, classOf, c)))
	}
}
