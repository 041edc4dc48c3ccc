package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"syncsim/internal/core"
	"syncsim/internal/engine"
	"syncsim/internal/machine"
	"syncsim/internal/metrics"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
	"syncsim/internal/workload/addr"
	"syncsim/internal/workload/suite"
)

// paperScale is the CLI and service default scale of the paper suite.
const paperScale = 0.2

// Wide-scaling scales. Past 64 CPUs the per-CPU workload floors set most
// of a sweep's cost: one sweep takes ~10 s on a 2-vCPU host, and Topopt's
// 128-CPU cell still ~4 s at a third of its scale.
var scalingScale = map[string]float64{"Grav": 0.015, "Topopt": 0.003}

// cell is one simulation of a sweep: a trace (program + parameters) under
// one machine configuration.
type cell struct {
	label  string // bench/model or bench/ncpuN, the digest key
	bench  string
	group  string // the per-layer metric key: model or ncpuN
	prog   workload.Program
	params workload.Params
	cfg    machine.Config
}

func paperCells(seed int64) []cell {
	var cells []cell
	for _, b := range suite.All() {
		for _, m := range []core.Model{core.ModelQueue, core.ModelTTS, core.ModelWO} {
			cells = append(cells, cell{
				label: b.Program.Name() + "/" + m.String(), bench: b.Program.Name(), group: m.String(),
				prog: b.Program, params: workload.Params{Scale: paperScale, Seed: seed},
				cfg: m.MachineConfig(machine.DefaultConfig()),
			})
		}
	}
	return cells
}

func scalingCells(seed int64) []cell {
	cfg := machine.DefaultConfig()
	cfg.Sched = machine.SchedParallel
	cfg.Workers = 2
	var cells []cell
	for _, name := range scalingBenches {
		b, err := suite.ByName(name)
		if err != nil {
			panic(err) // scalingBenches names suite members
		}
		for _, n := range scalingNCPU {
			cells = append(cells, cell{
				label: fmt.Sprintf("%s/ncpu%d", name, n), bench: name, group: fmt.Sprintf("ncpu%d", n),
				prog: b.Program, params: workload.Params{NCPU: n, Scale: scalingScale[name], Seed: seed},
				cfg: cfg,
			})
		}
	}
	return cells
}

// traceKey identifies a cell's trace, shared by the cells of one trace.
func traceKey(c cell) engine.Key { return engine.KeyFor(c.prog, c.params) }

// census generates every distinct trace of the cells once and counts its
// events: the numerator of sim_mevents_per_s.
func census(cells []cell) (map[engine.Key]int, error) {
	events := map[engine.Key]int{}
	for _, c := range cells {
		k := traceKey(c)
		if _, ok := events[k]; ok {
			continue
		}
		set, err := c.prog.Generate(c.params)
		if err != nil {
			return nil, err
		}
		n, ok := set.Events()
		if !ok {
			return nil, fmt.Errorf("%s: trace cannot count its events", c.label)
		}
		events[k] = n
	}
	return events, nil
}

// digest hashes labelled simulation results in label order.
func digest(results map[string]*machine.Result) string {
	labels := sortedKeys(results)
	h := sha256.New()
	for _, l := range labels {
		blob, err := json.Marshal(results[l])
		if err != nil {
			panic(err) // machine.Result is plain data
		}
		fmt.Fprintf(h, "%s %s\n", l, blob)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// simPhase is what the sweep workloads share: set-up by census, then
// either the untraced loop through the public entry point (sweep) or the
// traced loop of direct layer calls.
type simPhase struct {
	cells   []cell
	workers int
	// sweep runs one sweep through the public entry point and returns
	// its results by cell label plus the engine's report and cache stats.
	// It calls done as soon as the run returns, while the sweep's trace
	// cache is still referenced.
	sweep func(ctx context.Context, done func()) (map[string]*machine.Result, metrics.SuiteReport, engine.CacheStats, error)
}

func runSimPhase(ctx context.Context, e *env, p simPhase) (*outcome, error) {
	o := newOutcome()
	if e.rec != nil {
		return runDirect(ctx, e, p, o)
	}
	var cpus, walls []float64
	var events map[engine.Key]int
	for i := 0; i < setupRounds; i++ {
		w0, c0 := time.Now(), cpuTime()
		ev, err := census(p.cells)
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, (cpuTime() - c0).Seconds())
		walls = append(walls, time.Since(w0).Seconds())
		events = ev
	}
	o.e2e["setup_s"] = median(cpus)
	o.notef("set-up, median of %d: cpu %.3fs, wall %.3fs", setupRounds, median(cpus), median(walls))
	var perSweep float64
	for _, c := range p.cells {
		perSweep += float64(events[traceKey(c)])
	}

	// Every sweep does the same work and must give the same results. One
	// sweep before the window is their reference; it also warms the
	// process, whose first sweep costs more processor time than later ones.
	var first string
	sameAsFirst := func(what string, results map[string]*machine.Result) {
		d := digest(results)
		switch {
		case first == "":
			first = d
		case d != first:
			o.failed++
			o.notef("MISMATCH: %s results differ from the first sweep's", what)
		}
	}
	warm, _, _, err := p.sweep(ctx, func() {})
	o.attempted++
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		o.failed++
		o.notef("FAILED warm-up sweep: %v", err)
	} else {
		sameAsFirst("warm-up sweep", warm)
	}
	warm = nil

	// The first sweep of the window is measured.
	heap := newHeapProbe(1)
	var (
		lat, sweepCPU           latencies
		simEvents               float64
		busy, capacity          time.Duration
		steps, iters, cycles    uint64
		hits, misses, evictions int64
	)
	mt := startMeter()
	for n := 0; n == 0 || time.Since(mt.t0) < e.window; n++ {
		var t1 time.Time
		var c1 time.Duration
		t0, c0 := time.Now(), cpuTime()
		results, rep, cs, err := p.sweep(ctx, func() { t1, c1 = time.Now(), cpuTime(); heap.opDone() })
		o.attempted++
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			o.failed++
			o.notef("FAILED sweep %d: %v", n, err)
			continue
		}
		lat.add(t1.Sub(t0))
		sweepCPU = append(sweepCPU, float64(c1-c0)/float64(time.Millisecond))
		sameAsFirst(fmt.Sprintf("sweep %d", n), results)
		simEvents += perSweep
		busy += rep.Busy
		capacity += time.Duration(rep.Workers) * rep.Wall
		steps += rep.SchedSteps
		iters += rep.SchedIters
		cycles += rep.SimCycles
		hits += cs.Hits
		misses += cs.Misses
		evictions += cs.Evictions
	}
	wall, _ := mt.stop(o, "window")
	o.e2e["peak_heap_mib"] = heap.finish()
	o.e2e["cpu_ms_per_op"] = median(sweepCPU)
	o.e2e["sim_mevents_per_cpu_s"] = ratio(perSweep/1e3, median(sweepCPU))
	o.layer["sim_mevents_per_s"] = simEvents / wall.Seconds() / 1e6
	o.layer["ops_per_s"] = float64(len(lat)) / wall.Seconds()
	o.layer["op_ms.p50"] = median(lat)
	o.setTail(o.layer, "op_ms.tail", lat)
	o.rate = o.e2e["sim_mevents_per_cpu_s"]
	o.answers = map[string]string{"sweep": first}

	o.layer["engine.occupancy"] = ratio(float64(busy), float64(capacity))
	o.layer["engine.trace_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	o.layer["engine.trace_evictions"] = float64(evictions)
	o.layer["machine.steps_per_event"] = ratio(float64(steps), simEvents)
	o.layer["machine.iters_per_kcycle"] = 1000 * ratio(float64(iters), float64(cycles))
	o.notef("%d sweeps of %d cells, %.0f events each; sweep %s; cpu ms per sweep %.0f", len(lat), len(p.cells), perSweep, lat.describe(), sweepCPU)
	return o, nil
}

// runDirect is the traced phase: the same cells, calling the layers
// directly (Generate → AnalyzeIdeal → Clone → machine.Run) on the same
// number of workers, one span per call.
func runDirect(ctx context.Context, e *env, p simPhase, o *outcome) (*outcome, error) {
	type prepared struct {
		once   sync.Once
		set    *trace.Set
		events int
		err    error
	}
	var (
		mu               sync.Mutex
		genTime, anaTime time.Duration
		genEvents        float64
		runTime          = map[string]time.Duration{} // by bench, group, bench.group and label
		runEvents        = map[string]float64{}
		simEvents        float64
		first            string
		lastSets         map[engine.Key]*prepared
	)
	mt := startMeter()
	for n := 0; n == 0 || time.Since(mt.t0) < e.window; n++ {
		sweepCtx, root := e.rec.begin(ctx, "bench", fmt.Sprintf("sweep %d", n))
		lastSets = nil // let the previous sweep's traces go, as a fresh engine cache does
		prep := map[engine.Key]*prepared{}
		for _, c := range p.cells {
			if _, ok := prep[traceKey(c)]; !ok {
				prep[traceKey(c)] = &prepared{}
			}
		}
		results := make(map[string]*machine.Result, len(p.cells))
		var firstErr error
		feed := make(chan cell)
		var wg sync.WaitGroup
		for w := 0; w < p.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := range feed {
					pr := prep[traceKey(c)]
					pr.once.Do(func() {
						_, g := e.rec.begin(sweepCtx, "workload", "Generate "+c.bench)
						set, err := c.prog.Generate(c.params)
						gs := g.end()
						if err != nil {
							pr.err = err
							return
						}
						_, a := e.rec.begin(sweepCtx, "trace", "AnalyzeIdeal "+c.bench)
						trace.AnalyzeIdeal(set, addr.Shared).Summarize()
						pr.err = trace.Reset(set)
						as := a.end()
						pr.set = set
						pr.events, _ = set.Events()
						mu.Lock()
						genTime += gs.dur()
						anaTime += as.dur()
						genEvents += float64(pr.events)
						mu.Unlock()
					})
					res, err := func() (*machine.Result, error) {
						if pr.err != nil {
							return nil, pr.err
						}
						_, cl := e.rec.begin(sweepCtx, "trace", "Clone "+c.label)
						clone, err := pr.set.Clone()
						cl.end()
						if err != nil {
							return nil, err
						}
						_, r := e.rec.begin(sweepCtx, "machine", "Run "+c.label)
						res, err := machine.RunCtx(ctx, clone, c.cfg)
						rs := r.end()
						mu.Lock()
						for _, k := range []string{c.bench, c.group, c.bench + "." + c.group, c.label} {
							runTime[k] += rs.dur()
							runEvents[k] += float64(pr.events)
						}
						simEvents += float64(pr.events)
						mu.Unlock()
						return res, err
					}()
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = fmt.Errorf("%s: %w", c.label, err)
					}
					results[c.label] = res
					mu.Unlock()
				}
			}()
		}
		for _, c := range p.cells {
			feed <- c
		}
		close(feed)
		wg.Wait()
		root.end()
		o.attempted++
		if firstErr != nil {
			if ctx.Err() != nil {
				return nil, firstErr
			}
			o.failed++
			o.notef("FAILED sweep %d: %v", n, firstErr)
			continue
		}
		d := digest(results)
		switch {
		case first == "":
			first = d
		case d != first:
			o.failed++
			o.notef("MISMATCH: traced sweep %d results differ from sweep 0", n)
		}
		lastSets = prep
	}
	_, cpu := mt.stop(o, "window")
	o.rate = simEvents / cpu.Seconds() / 1e6
	o.answers = map[string]string{"sweep": first}

	o.layer["workload.gen_mevents_per_s"] = genEvents / genTime.Seconds() / 1e6
	o.layer["trace.analyze_mevents_per_s"] = genEvents / anaTime.Seconds() / 1e6
	for k, d := range runTime {
		// Keys that name no per-layer metric (cell labels) are not printed.
		o.layer["machine.mevents_per_s."+k] = runEvents[k] / d.Seconds() / 1e6
	}
	for _, b := range scalingBenches {
		if t65 := o.layer[scalingName(b, 65)]; t65 > 0 {
			o.layer["machine.cliff_64_65."+b] = o.layer[scalingName(b, 64)] / t65
		}
	}

	// Outside the timed window and unspanned: the compact decode the
	// machine pays per event, and the cost of a trace-cache hit.
	var decoded, decodeEvents float64
	for _, pr := range lastSets {
		if pr.set == nil {
			continue
		}
		clone, err := pr.set.Clone()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for _, src := range clone.Sources {
			for {
				if _, ok := src.Next(); !ok {
					break
				}
			}
		}
		decoded += float64(time.Since(t0))
		decodeEvents += float64(pr.events)
	}
	o.layer["trace.replay_ns_per_event"] = ratio(decoded, decodeEvents)
	hit, err := cacheHitMicros(ctx, p.cells)
	if err != nil {
		return nil, err
	}
	o.layer["engine.hit_us.p50"] = hit
	o.notef("%d direct sweeps; generate %v, analyze %v", o.attempted, genTime.Round(time.Millisecond), anaTime.Round(time.Millisecond))
	for _, c := range p.cells {
		o.notef("cell %-16s %9.0f events/run, machine.Run %8.1f ms/run", c.label,
			runEvents[c.label]/float64(o.attempted), float64(runTime[c.label])/float64(time.Millisecond)/float64(o.attempted))
	}
	return o, nil
}

// cacheHitMicros times TraceCache.Get on a hit for each benchmark of the
// cells, at a small scale: a hit's cost (lookup, LRU touch, cursor clone)
// does not depend on trace length.
func cacheHitMicros(ctx context.Context, cells []cell) (float64, error) {
	cache := engine.NewTraceCache()
	var us []float64
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.bench] {
			continue
		}
		seen[c.bench] = true
		p := c.params
		p.Scale = 0.01
		if _, _, _, err := cache.Get(ctx, c.prog, p, nil); err != nil {
			return 0, err
		}
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			if _, _, _, err := cache.Get(ctx, c.prog, p, nil); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	return median(us), nil
}

// runPaperSuite regenerates the paper's 6-benchmark × 3-model matrix
// through core.RunSuiteCtx, each sweep on a fresh trace cache.
func runPaperSuite(ctx context.Context, e *env) (*outcome, error) {
	seed := e.rng("paper-suite/generation").Int64N(1 << 31)
	workers := runtime.GOMAXPROCS(0)
	return runSimPhase(ctx, e, simPhase{
		cells:   paperCells(seed),
		workers: workers,
		sweep: func(ctx context.Context, done func()) (map[string]*machine.Result, metrics.SuiteReport, engine.CacheStats, error) {
			cache := engine.NewTraceCache()
			var rep metrics.SuiteReport
			outs, err := core.RunSuiteCtx(ctx, core.NewOptions(
				core.WithScale(paperScale), core.WithSeed(seed), core.WithWorkers(workers),
				core.WithCache(cache), core.WithReport(func(r metrics.SuiteReport) { rep = r })))
			done()
			if err != nil {
				return nil, rep, engine.CacheStats{}, err
			}
			results := map[string]*machine.Result{}
			for _, out := range outs {
				for m, r := range out.Results {
					results[out.Name+"/"+m.String()] = r
				}
			}
			return results, rep, cache.Stats(), nil
		},
	})
}

// runWideScaling runs the processor-count sweep of cmd/sweep -param ncpu
// for Grav and Topopt past 64 CPUs, under the parallel scheduler with two
// workers on a one-worker engine.
func runWideScaling(ctx context.Context, e *env) (*outcome, error) {
	seed := e.rng("wide-scaling/generation").Int64N(1 << 31)
	cells := scalingCells(seed)
	tasks := make([]engine.Task, len(cells))
	for i, c := range cells {
		tasks[i] = engine.Task{Program: c.prog, Params: c.params, Label: c.group, Config: c.cfg}
	}
	return runSimPhase(ctx, e, simPhase{
		cells:   cells,
		workers: 1,
		sweep: func(ctx context.Context, done func()) (map[string]*machine.Result, metrics.SuiteReport, engine.CacheStats, error) {
			eng := engine.New(engine.Config{Workers: 1})
			res, rep, err := eng.Run(ctx, tasks)
			done()
			if err != nil {
				return nil, rep, engine.CacheStats{}, err
			}
			results := map[string]*machine.Result{}
			for i, r := range res {
				results[cells[i].label] = r.Result
			}
			return results, rep, eng.Cache().Stats(), nil
		},
	})
}
