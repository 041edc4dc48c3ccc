package main

import "strconv"

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (pinned by TestMetricTablesMatchManifest).
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics every untraced run prints, on every workload.
// What an "op" is differs by workload (see README.md). The times are
// processor time, which a shared host's steal phases leave alone; the
// wall-time figures are per-layer metrics (wallMetrics).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_heap_mib", "MiB", "lower"},
	{"sim_mevents_per_cpu_s", "Mevents/cpu_s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
}

// wallMetrics are the wall-time figures every workload measures. They
// swing with the host's load by more than the bounds allow, so they are
// per-layer metrics, taken from the traced run's untraced phase.
var wallMetrics = []metricDef{
	{"sim_mevents_per_s", "Mevents/s", "higher"},
	{"ops_per_s", "1/s", "higher"},
	{"op_ms.p50", "ms", "lower"},
	{"op_ms.tail", "ms", "lower"},
}

// layers are the repository's modules the traced run attributes time to.
var layers = []string{
	"workload", "trace", "engine", "machine", "core",
	"server", "predict", "replay", "client", "fleet", "store",
}

// Benchmarks, models and processor counts the per-layer names enumerate.
var (
	paperBenches   = []string{"Grav", "Pdsa", "FullConn", "Pverify", "Qsort", "Topopt"}
	modelNames     = []string{"queue", "tts", "wo"}
	scalingBenches = []string{"Grav", "Topopt"}
	scalingNCPU    = []int{16, 64, 65}
	serveClasses   = []string{"hot", "new-config", "cold", "predict", "analyze"}
	// simClasses are the /v1/sim classes, whose answers carry the phase
	// report that separates the server's own time from the simulation's.
	// The predict and analyze handlers are timed whole, as
	// predict.handler_us.p50 and replay.handler_ms.p50.
	simClasses = serveClasses[:3]
)

// perLayer are the metrics every traced run prints. A workload that does
// not enter a layer reports 0 for that layer's metrics.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(name, unit, better string) { m = append(m, metricDef{name, unit, better}) }
	for _, l := range layers {
		add(l+".self_pct", "%", "lower")
	}
	add("trace_overhead_pct", "%", "lower")
	m = append(m, wallMetrics...)

	add("workload.gen_mevents_per_s", "Mevents/s", "higher")
	add("trace.analyze_mevents_per_s", "Mevents/s", "higher")
	add("trace.replay_ns_per_event", "ns", "lower")
	add("engine.trace_hit_ratio", "ratio", "higher")
	add("engine.trace_evictions", "count", "lower")
	add("engine.hit_us.p50", "us", "lower")
	add("engine.occupancy", "ratio", "higher")
	for _, b := range paperBenches {
		add("machine.mevents_per_s."+b, "Mevents/s", "higher")
	}
	for _, mo := range modelNames {
		add("machine.mevents_per_s."+mo, "Mevents/s", "higher")
	}
	add("machine.steps_per_event", "ratio", "lower")
	add("machine.iters_per_kcycle", "ratio", "lower")
	for _, b := range scalingBenches {
		for _, n := range scalingNCPU {
			add(scalingName(b, n), "Mevents/s", "higher")
		}
	}
	for _, b := range scalingBenches {
		add("machine.cliff_64_65."+b, "ratio", "lower")
	}

	for _, c := range simClasses {
		add("server.self_ms.p50."+c, "ms", "lower")
	}
	add("server.lru_hit_ratio", "ratio", "higher")
	add("server.coalesced_ratio", "ratio", "higher")
	add("server.shed_ratio", "ratio", "lower")
	add("predict.handler_us.p50", "us", "lower")
	add("replay.handler_ms.p50", "ms", "lower")
	add("replay.runs_per_request", "count", "lower")
	add("client.self_ms.p50", "ms", "lower")
	add("client.retries", "count", "lower")
	add("fleet.self_ms.p50", "ms", "lower")
	add("fleet.sweep_lru_hit_ratio", "ratio", "higher")
	add("fleet.cell_store_hit_ratio", "ratio", "higher")
	add("fleet.hedges_per_cell", "ratio", "lower")
	add("fleet.hedge_win_ratio", "ratio", "higher")
	add("fleet.cell_skew", "ratio", "lower")
	add("store.get_us.p50", "us", "lower")
	add("store.put_us.p50", "us", "lower")

	// Class latencies: end-to-end in kind, but each exists on one
	// workload only, so they are reported here (from the traced run's
	// untraced phase) rather than as end-to-end metrics, which every
	// workload must report.
	add("serve_rps", "1/s", "higher")
	add("hot_ms.p50", "ms", "lower")
	add("hot_ms.tail", "ms", "lower")
	add("run_ms.p50", "ms", "lower")
	add("run_ms.tail", "ms", "lower")
	add("predict_ms.p50", "ms", "lower")
	add("analyze_ms.p50", "ms", "lower")
	add("predict_err_pct", "%", "lower")
	add("sweep_cold_s.p50", "s", "lower")
	add("sweep_warm_ms.p50", "ms", "lower")
	add("sweep_warm_ms.tail", "ms", "lower")
	add("sweep_repeated_ms.p50", "ms", "lower")
	add("sweep_subset_ms.p50", "ms", "lower")
	return m
}

func scalingName(bench string, ncpu int) string {
	return "machine.mevents_per_s." + bench + ".ncpu" + strconv.Itoa(ncpu)
}
