package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"strings"
	"time"

	"syncsim/internal/api"
	"syncsim/internal/client"
	"syncsim/internal/engine"
	"syncsim/internal/metrics"
	"syncsim/internal/predict"
	"syncsim/internal/replay"
	"syncsim/internal/server"
)

// serve-mix parameters. Qsort is left out of the mix: its workload floor
// makes every request a ~1 s simulation at any small scale (paper-suite
// covers it).
var (
	serveBenches  = []string{"Grav", "Pdsa", "FullConn", "Pverify", "Topopt"}
	analyzeBench  = "Grav" // one benchmark keeps analyze latency, the mix's tail, tight
	calibScales   = []float64{0.005, 0.01}
	predictScales = []float64{0.006, 0.008}
	// newConfigs are the non-default (lock, cons) machines a new-config
	// request replays a warm trace under.
	newConfigs = [][2]string{{"tts", "sc"}, {"tts-backoff", "sc"}, {"queue-exact", "sc"}, {"queue", "wo"}, {"tts", "wo"}}
	// modelMachine is the (lock, cons) of each predict model.
	modelMachine = map[string][2]string{"queue": {"queue", "sc"}, "tts": {"tts", "sc"}, "wo": {"queue", "wo"}}
)

const (
	serveScale   = 0.01
	serveClients = 2
	serveSeqLen  = 4000 // items per client; far more than a window sends
	pairEvery    = 60   // every pairEvery-th item both clients send one cold request
	serveHeapOps = 600  // requests after which peak_heap_mib is read (a window sends ~1000-1700)
	// mixSeedBase keeps every generation seed the mix requests disjoint
	// from the calibration seeds, which are below it.
	mixSeedBase = 1_000_000
)

// serveDeck fixes the class proportions: each block of len(serveDeck)
// items of a client's sequence is a seeded shuffle of it. Predict answers
// are the fastest and hot ones the next, so with 30% predict below 40%
// hot the median request falls at the middle of the hot class, not in the
// steep upper part of its distribution where run-to-run noise is larger.
var serveDeck = deck(map[string]int{"hot": 16, "predict": 12, "new-config": 4, "cold": 7, "analyze": 1})

// deck lists each class as many times as its count, in serveClasses order.
func deck(counts map[string]int) []string {
	var d []string
	for _, c := range serveClasses {
		for i := 0; i < counts[c]; i++ {
			d = append(d, c)
		}
	}
	return d
}

// bag deals the elements of xs in seeded random order, each once per
// round, so every len(xs) consecutive draws cover xs exactly once. Cold
// requests draw their benchmark from one: a window's simulation work then
// does not depend on how often the seed happens to pick the costlier
// benchmarks.
type bag struct {
	rng      *rand.Rand
	xs, left []string
}

func (b *bag) next() string {
	if len(b.left) == 0 {
		b.left = append(b.left, b.xs...)
		b.rng.Shuffle(len(b.left), func(i, j int) { b.left[i], b.left[j] = b.left[j], b.left[i] })
	}
	x := b.left[0]
	b.left = b.left[1:]
	return x
}

type serveItem struct {
	class string
	sim   api.SimRequest
	pred  api.PredictRequest
	an    api.AnalyzeRequest
	pair  int
}

// serveMix is the seed's whole input: the calibration seed, the hot keys
// warmed at set-up, and one request sequence per client.
type serveMix struct {
	calSeed int64
	hot     []api.SimRequest
	seqs    [serveClients][]serveItem
}

func newServeMix(rng *rand.Rand) *serveMix {
	m := &serveMix{calSeed: 1 + rng.Int64N(mixSeedBase-1)}
	next := mixSeedBase + rng.Int64N(1<<40)
	seed := func() int64 { next++; return next }
	for _, b := range serveBenches {
		m.hot = append(m.hot, api.SimRequest{Bench: b, Scale: serveScale, Seed: seed()})
	}
	predSeeds := []int64{seed(), seed()}
	for c := range m.seqs {
		// A new-config request replays the client's most recent cold
		// trace (still in the trace cache) of a benchmark dealt from a
		// bag, or that benchmark's hot key before the client's first cold
		// request of it: the benchmarks new-config requests simulate are
		// then as balanced as the cold requests', and a window's
		// simulation work does not depend on the seed's draws.
		lastCold := map[string]api.SimRequest{}
		for _, h := range m.hot {
			lastCold[h.Bench] = h
		}
		configBench := &bag{rng: rng, xs: serveBenches}
		used := map[string]bool{}
		coldBench := &bag{rng: rng, xs: serveBenches}
		deck := append([]string(nil), serveDeck...)
		for len(m.seqs[c]) < serveSeqLen {
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			for _, class := range deck {
				it := serveItem{class: class}
				switch class {
				case "hot":
					it.sim = m.hot[rng.IntN(len(m.hot))]
				case "predict":
					it.pred = api.PredictRequest{
						Bench: serveBenches[rng.IntN(len(serveBenches))], Model: modelNames[rng.IntN(len(modelNames))],
						Scale: predictScales[rng.IntN(len(predictScales))], Seed: predSeeds[rng.IntN(len(predSeeds))],
						Mode: api.PredictAnalytic,
					}
				case "new-config":
					base := lastCold[configBench.next()]
					for _, k := range rng.Perm(len(newConfigs)) {
						key := fmt.Sprintf("%s/%d/%d", base.Bench, base.Seed, k)
						if !used[key] {
							used[key] = true
							base.Lock, base.Cons = newConfigs[k][0], newConfigs[k][1]
							break
						}
					}
					it.sim = base
				case "cold":
					it.sim = api.SimRequest{Bench: coldBench.next(), Scale: serveScale, Seed: seed()}
					lastCold[it.sim.Bench] = it.sim
				case "analyze":
					it.an = api.AnalyzeRequest{Bench: analyzeBench, Scale: serveScale, Seed: seed()}
				}
				m.seqs[c] = append(m.seqs[c], it)
			}
		}
	}
	// Paired cold keys: both clients send the same new trace at once.
	pairBench := &bag{rng: rng, xs: serveBenches}
	for i, id := pairEvery/2, 1; i < serveSeqLen; i, id = i+pairEvery, id+1 {
		req := api.SimRequest{Bench: pairBench.next(), Scale: serveScale, Seed: seed()}
		for c := range m.seqs {
			m.seqs[c][i] = serveItem{class: "cold", sim: req, pair: id}
		}
	}
	return m
}

// serveSUT is one booted serve-mix system: a server with a calibrated
// model, on a loopback port, with warm hot keys.
type serveSUT struct {
	srv   *server.Server
	ln    *listener
	model *predict.Model
	cli   *client.Client
}

func (s *serveSUT) close() {
	s.ln.close()
	s.srv.Close()
}

// serveLayer names the layer of each endpoint's handler span.
func serveLayer(path string) string {
	switch path {
	case "/v1/predict":
		return "predict"
	case "/v1/analyze":
		return "replay"
	}
	return "server"
}

func bootServe(ctx context.Context, e *env, m *serveMix) (*serveSUT, error) {
	model, _, err := predict.CalibrateGrid(ctx, predict.CalibrateOptions{
		Scales: calibScales, Seeds: []int64{m.calSeed}, Only: serveBenches, Workers: 2})
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	srv := server.New(server.Config{Predict: model})
	var h http.Handler = srv.Handler()
	if e.rec != nil {
		h = e.rec.middleware(nil, nil, serveLayer, h)
	}
	ln, err := serve(h)
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &serveSUT{srv: srv, ln: ln, model: model, cli: client.New(ln.url, client.Config{HTTPClient: httpClient(e.rec)})}
	for _, req := range m.hot {
		if _, err := s.cli.Sim(ctx, req); err != nil {
			s.close()
			return nil, fmt.Errorf("warm %s: %w", req.Bench, err)
		}
	}
	return s, nil
}

// serverCounters reads the server's /metrics counters.
func serverCounters(ctx context.Context, url string) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return doc.Counters, nil
}

// runServeMix drives two closed-loop clients against one server.
func runServeMix(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	m := newServeMix(e.rng("serve-mix/requests"))

	sut, setup, err := setUp(e, o, func() (*serveSUT, error) { return bootServe(ctx, e, m) })
	if err != nil {
		return nil, err
	}
	defer sut.close()
	o.e2e["setup_s"] = setup

	before, err := serverCounters(ctx, sut.ln.url)
	if err != nil {
		return nil, err
	}
	tcBefore := sut.srv.TraceCache().Stats()
	heap := newHeapProbe(serveHeapOps)
	mt := startMeter()
	ops := closedLoop(ctx, e.rec, e.window, serveClients, len(serveDeck),
		func(c, i int) int { return m.seqs[c][i].pair },
		func(c, i int) string { return m.seqs[c][i].class },
		func(ctx context.Context, c, i int) (any, error) {
			it := m.seqs[c][i]
			switch it.class {
			case "predict":
				return sut.cli.Predict(ctx, it.pred)
			case "analyze":
				return sut.cli.Analyze(ctx, it.an)
			}
			return sut.cli.Sim(ctx, it.sim)
		},
		func(resp any, err error) any {
			kept := keepServe(resp, err)
			heap.opDone()
			return kept
		})
	wall, cpu := mt.stop(o, "window")
	o.e2e["peak_heap_mib"] = heap.finish()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	after, err := serverCounters(ctx, sut.ln.url)
	if err != nil {
		return nil, err
	}
	tc := sut.srv.TraceCache().Stats()

	byClass := map[string]latencies{}
	var all latencies
	for _, op := range ops {
		o.attempted++
		if op.failed() {
			o.failed++
			o.notef("FAILED %s (client %d item %d): err=%v, non-2xx attempts=%d", op.class, op.client, op.index, op.err, op.stats.bad.Load())
		}
		all.add(op.latency)
		l := byClass[op.class]
		l.add(op.latency)
		byClass[op.class] = l
	}
	chk, err := checkServe(ctx, m, sut, ops)
	if err != nil {
		return nil, err
	}
	o.failed += chk.mismatches
	o.notes = append(o.notes, chk.notes...)

	secs := wall.Seconds()
	o.e2e["sim_mevents_per_cpu_s"] = chk.simEvents / cpu.Seconds() / 1e6
	o.e2e["cpu_ms_per_op"] = ratio(float64(cpu)/float64(time.Millisecond), float64(len(ops)))
	o.layer["sim_mevents_per_s"] = chk.simEvents / secs / 1e6
	o.layer["ops_per_s"] = float64(len(ops)) / secs
	o.layer["op_ms.p50"] = median(all)
	o.setTail(o.layer, "op_ms.tail", all)
	o.rate = ratio(float64(len(ops)), cpu.Seconds())
	o.answers = chk.answers

	run := append(append(latencies(nil), byClass["new-config"]...), byClass["cold"]...)
	o.layer["serve_rps"] = o.layer["ops_per_s"]
	o.layer["hot_ms.p50"] = median(byClass["hot"])
	o.setTail(o.layer, "hot_ms.tail", byClass["hot"])
	o.layer["run_ms.p50"] = median(run)
	o.setTail(o.layer, "run_ms.tail", run)
	o.layer["predict_ms.p50"] = median(byClass["predict"])
	o.layer["analyze_ms.p50"] = median(byClass["analyze"])
	o.layer["predict_err_pct"] = chk.predictErrPct
	o.layer["replay.runs_per_request"] = chk.runsPerAnalyze
	n := float64(len(ops))
	delta := func(k string) float64 { return float64(after[k] - before[k]) }
	o.layer["server.lru_hit_ratio"] = ratio(delta("result_cache_hits"), n)
	o.layer["server.coalesced_ratio"] = ratio(delta("requests_coalesced"), n)
	o.layer["server.shed_ratio"] = ratio(delta("jobs_rejected"), n)
	hits, misses := tc.Hits-tcBefore.Hits, tc.Misses-tcBefore.Misses
	o.layer["engine.trace_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	o.layer["engine.trace_evictions"] = float64(tc.Evictions - tcBefore.Evictions)
	var retries int32
	for _, op := range ops {
		retries += op.stats.attempts.Load() - 1
	}
	o.layer["client.retries"] = float64(retries)

	o.notef("%d requests by %d clients in %.2fs: %s", len(ops), serveClients, secs, all.describe())
	for _, c := range serveClasses {
		o.notef("  %-10s %s", c, byClass[c].describe())
	}
	o.notef("  run (new-config+cold) %s", run.describe())
	o.notef("trace cache: %d hits, %d misses, %d evictions; predict_err_pct %.3f over %d held-out cells",
		hits, misses, tc.Evictions-tcBefore.Evictions, chk.predictErrPct, chk.predictCells)

	if e.rec != nil {
		serveSpans(e.rec, ops, o)
	}
	return o, nil
}

// serveCheck is the outcome of checking every answer of a serve-mix run.
type serveCheck struct {
	mismatches     int
	notes          []string
	answers        map[string]string
	simEvents      float64
	predictErrPct  float64
	predictCells   int
	runsPerAnalyze float64
}

// serveKept is what the checks and spans need of a serve-mix answer: how
// it was served, the hash of the part compared with the reference (the
// Result of a /v1/sim answer, the Prediction of a /v1/predict answer, the
// AnalyzePayload of a /v1/analyze answer) and the few fields checked or
// used beside it. Holding only this keeps the benchmark's own answers out
// of the heap peak_heap_mib reads.
type serveKept struct {
	served, hash string
	report       metrics.RunReport  // sim: the phase split for the spans
	echo         api.PredictRequest // predict: the request the server says it answered
	source       string             // predict: which engine answered
	runs         int                // analyze: simulations replayed
}

func keepServe(resp any, err error) any {
	if err != nil {
		return nil
	}
	switch r := resp.(type) {
	case *api.SimResponse:
		k := serveKept{served: r.Served}
		if r.SimPayload != nil {
			k.hash, k.report = hashString(mustJSON(r.Result)), r.Report
		}
		return k
	case *api.PredictResponse:
		k := serveKept{served: r.Served, echo: r.Request, source: r.Source}
		if r.Prediction != nil {
			k.hash = hashString(mustJSON(*r.Prediction))
		}
		return k
	case *api.AnalyzeResponse:
		k := serveKept{served: r.Served}
		if r.AnalyzePayload != nil {
			k.hash, k.runs = hashString(mustJSON(r.AnalyzePayload)), 2+len(r.Perturbations)
		}
		return k
	}
	return nil
}

// checkServe compares every answer with a direct reference, outside the
// timed window: each /v1/sim answer with an engine run of
// server.TaskForRequest, each prediction with the model's answer for the
// request sent, each /v1/analyze answer with replay.Analyze; and it
// simulates the predicted held-out cells to measure the predictor's error.
func checkServe(ctx context.Context, m *serveMix, sut *serveSUT, ops []op) (*serveCheck, error) {
	ck := &serveCheck{}
	eng := engine.New(engine.Config{Workers: 2, Cache: engine.NewTraceCache()})
	var tasks []engine.Task
	taskOf := map[string]int{}
	addTask := func(req api.SimRequest) (int, error) {
		key := mustJSON(req)
		if i, ok := taskOf[key]; ok {
			return i, nil
		}
		t, err := server.TaskForRequest(req)
		if err != nil {
			return 0, err
		}
		taskOf[key] = len(tasks)
		tasks = append(tasks, t)
		return len(tasks) - 1, nil
	}
	predCell := map[string]int{} // held-out predicted cell → task
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		it := m.seqs[op.client][op.index]
		switch it.class {
		case "hot", "new-config", "cold":
			if _, err := addTask(it.sim); err != nil {
				return nil, err
			}
		case "predict":
			mc := modelMachine[it.pred.Model]
			i, err := addTask(api.SimRequest{Bench: it.pred.Bench, Scale: it.pred.Scale, Seed: it.pred.Seed, Lock: mc[0], Cons: mc[1]})
			if err != nil {
				return nil, err
			}
			predCell[mustJSON(it.pred)] = i
		}
	}
	results, _, err := eng.Run(ctx, tasks)
	if err != nil {
		return nil, fmt.Errorf("reference runs: %w", err)
	}
	events := func(t engine.Task) (float64, error) {
		set, _, _, err := eng.Cache().Get(ctx, t.Program, t.Params, nil)
		if err != nil {
			return 0, err
		}
		n, _ := set.Events()
		return float64(n), nil
	}
	mismatch := func(op op, what string) {
		ck.mismatches++
		ck.notes = append(ck.notes, fmt.Sprintf("MISMATCH %s (client %d item %d): %s", op.class, op.client, op.index, what))
	}

	var analyzeRuns []float64
	ck.answers = map[string]string{}
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		it := m.seqs[op.client][op.index]
		got, _ := op.resp.(serveKept)
		switch it.class {
		case "hot", "new-config", "cold":
			i := taskOf[mustJSON(it.sim)]
			want := hashString(mustJSON(results[i].Result))
			if got.hash != want {
				mismatch(op, "result differs from the direct engine run")
				continue
			}
			ck.answers[mustJSON(it.sim)] = want
			if got.served == "run" {
				n, err := events(tasks[i])
				if err != nil {
					return nil, err
				}
				ck.simEvents += n
			}
		case "predict":
			// The echo must name the cell sent; only the tolerance, which
			// the mix leaves to the server's default, may be filled in.
			echo := got.echo
			echo.MaxError = it.pred.MaxError
			pred, err := sut.model.Predict(it.pred.Bench, it.pred.Model, it.pred.Scale)
			if err != nil {
				return nil, fmt.Errorf("reference prediction: %w", err)
			}
			want := hashString(mustJSON(pred))
			switch {
			case got.source != "analytic":
				mismatch(op, fmt.Sprintf("answered by %q, not the analytic model", got.source))
			case echo != it.pred:
				mismatch(op, fmt.Sprintf("answered %+v, not the request sent", got.echo))
			case got.hash != want:
				mismatch(op, "prediction differs from the model's")
			default:
				ck.answers[mustJSON(it.pred)] = want
			}
		case "analyze":
			job, err := server.AnalyzeJobForRequest(it.an)
			if err != nil {
				return nil, err
			}
			job.Cache = eng.Cache()
			ref, err := replay.Analyze(ctx, job)
			if err != nil {
				return nil, fmt.Errorf("reference analyze: %w", err)
			}
			want := hashString(mustJSON(ref))
			if got.hash != want {
				mismatch(op, "analysis differs from replay.Analyze")
				continue
			}
			ck.answers[mustJSON(it.an)] = want
			runs := float64(got.runs)
			analyzeRuns = append(analyzeRuns, runs)
			if got.served == "run" {
				n, err := events(engine.Task{Program: job.Prog, Params: job.Params})
				if err != nil {
					return nil, err
				}
				ck.simEvents += runs * n
			}
		}
	}
	var errs []float64
	for key, i := range predCell {
		var req api.PredictRequest
		if err := json.Unmarshal([]byte(key), &req); err != nil {
			return nil, err
		}
		pred, err := sut.model.Predict(req.Bench, req.Model, req.Scale)
		if err != nil {
			return nil, err
		}
		rt := float64(results[i].Result.RunTime)
		errs = append(errs, 100*math.Abs(pred.TTS-rt)/rt)
	}
	ck.predictErrPct = median(errs)
	ck.predictCells = len(errs)
	ck.runsPerAnalyze = median(analyzeRuns)
	return ck, nil
}

// serveSpans derives the serve-mix per-layer metrics from the spans: the
// payload's own phase report splits a simulating handler's time into
// generate (workload), analyze (trace), simulate (machine) and the
// engine's rest; the server's self time is what remains.
func serveSpans(rec *recorder, ops []op, o *outcome) {
	spans := rec.snapshot()
	byParent := map[uint64][]span{}
	clientOf := map[uint64]span{}
	for _, s := range spans {
		if s.Layer == "client" {
			clientOf[s.Req] = s
		} else if s.Parent != 0 {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		}
	}
	for _, op := range ops {
		got, ok := op.resp.(serveKept)
		if !ok || (got.served != "run" && got.served != "coalesced") {
			continue
		}
		for _, h := range byParent[clientOf[op.req].ID] {
			r := got.report
			rest := r.Wall - r.Generate - r.Analyze - r.Simulate
			rec.addChildren(h, []part{
				{"workload", "generate", r.Generate}, {"trace", "analyze", r.Analyze},
				{"machine", "simulate", r.Simulate}, {"engine", "task", rest},
			})
		}
	}
	spans = rec.snapshot()
	self := selfTimes(spans)
	classOf := map[uint64]string{}
	for _, op := range ops {
		classOf[op.req] = op.class
	}
	serverSelf := map[string]latencies{}
	var clientSelf, predictUS, replayMS latencies
	for _, s := range spans {
		switch s.Layer {
		case "client":
			clientSelf.add(self[s.ID])
		case "server":
			if s.Parent == 0 {
				continue // the benchmark's own /metrics reads
			}
			c := classOf[s.Req]
			l := serverSelf[c]
			l.add(self[s.ID])
			serverSelf[c] = l
		case "predict":
			predictUS = append(predictUS, 1000*float64(s.dur())/float64(time.Millisecond))
		case "replay":
			replayMS.add(s.dur())
		}
	}
	for _, c := range simClasses {
		o.layer["server.self_ms.p50."+c] = median(serverSelf[c])
	}
	o.layer["client.self_ms.p50"] = median(clientSelf)
	o.layer["predict.handler_us.p50"] = median(predictUS)
	o.layer["replay.handler_ms.p50"] = median(replayMS)
	for _, c := range []string{"hot", "cold"} {
		o.notef("%s-class self time by layer: %s", c, formatShares(classShares(spans, classOf, c)))
	}
}

// classShares is layerShares restricted to the spans of one class.
func classShares(spans []span, classOf map[uint64]string, class string) map[string]float64 {
	var sub []span
	for _, s := range spans {
		if classOf[s.Req] == class {
			sub = append(sub, s)
		}
	}
	return layerShares(sub)
}

func formatShares(sh map[string]float64) string {
	var parts []string
	for _, l := range layers {
		if sh[l] > 0 {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", l, sh[l]))
		}
	}
	return strings.Join(parts, ", ")
}

func mustJSON(v any) string {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire types are plain data
	}
	return string(blob)
}
