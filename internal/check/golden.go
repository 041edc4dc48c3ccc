package check

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"syncsim/internal/core"
	"syncsim/internal/engine"
	"syncsim/internal/machine"
	"syncsim/internal/workload"
	"syncsim/internal/workload/suite"
)

// IdealGolden pins a benchmark's trace-level ideal statistics — the
// quantities behind the paper's Tables 1 and 2.
type IdealGolden struct {
	NCPU        int     `json:"ncpu"`
	WorkCycles  float64 `json:"work_cycles"`
	Refs        float64 `json:"refs"`
	DataRefs    float64 `json:"data_refs"`
	SharedRefs  float64 `json:"shared_refs"`
	LockPairs   float64 `json:"lock_pairs"`
	NestedLocks float64 `json:"nested_locks"`
	AvgHeld     float64 `json:"avg_held"`
	PctTime     float64 `json:"pct_time"`
	Locks       int     `json:"locks"`
}

// ModelGolden pins one machine model's simulated metrics — the quantities
// behind the paper's Tables 3-8 rows for that model.
type ModelGolden struct {
	RunTime       uint64  `json:"run_time"`
	UtilPct       float64 `json:"util_pct"`
	CacheStallPct float64 `json:"cache_stall_pct"`
	LockStallPct  float64 `json:"lock_stall_pct"`
	OtherStallPct float64 `json:"other_stall_pct"`
	BusUtilPct    float64 `json:"bus_util_pct"`
	ReadHitPct    float64 `json:"read_hit_pct"`
	WriteHitPct   float64 `json:"write_hit_pct"`
	Acquisitions  uint64  `json:"acquisitions"`
	Transfers     uint64  `json:"transfers"`
	AvgHold       float64 `json:"avg_hold"`
	AvgWaiters    float64 `json:"avg_waiters"`
	AvgXferHold   float64 `json:"avg_xfer_hold"`
	AvgXferTime   float64 `json:"avg_xfer_time"`
	BusTxns       uint64  `json:"bus_txns"`
}

// Golden is one benchmark's committed regression snapshot at a fixed
// (scale, seed): drift in any field without regenerating the corpus fails
// CI.
type Golden struct {
	Benchmark string                 `json:"benchmark"`
	Scale     float64                `json:"scale"`
	Seed      int64                  `json:"seed"`
	Ideal     IdealGolden            `json:"ideal"`
	Models    map[string]ModelGolden `json:"models"`
}

// GoldenScale and GoldenSeed are the corpus generation parameters: small
// enough that regenerating all six benchmarks takes seconds, large enough
// that every model exercises real contention.
const (
	GoldenScale = 0.02
	GoldenSeed  = 1
)

// GoldenFile maps a benchmark name to its corpus file name.
func GoldenFile(name string) string { return strings.ToLower(name) + ".json" }

// WideCell is a fixed golden cell past 64 processors, where every CPU set
// the machine keeps (the holder index, the calendar's near and dirty sets,
// the worker pool's sweep) spans more than one 64-bit word.
type WideCell struct {
	Benchmark string
	NCPU      int
	Scale     float64
}

// WideCells are the corpus's wide cells, simulated at GoldenSeed under all
// three models. Their scales are fixed and small because the per-processor
// workload floors make wide machines costly.
var WideCells = []WideCell{
	{"Grav", 65, 0.005}, {"Grav", 128, 0.005},
	{"Topopt", 65, 0.001}, {"Topopt", 128, 0.001},
}

// File is the cell's corpus file name.
func (c WideCell) File() string {
	return fmt.Sprintf("%s-ncpu%d.json", strings.ToLower(c.Benchmark), c.NCPU)
}

// Params are the cell's generation parameters.
func (c WideCell) Params() workload.Params {
	return workload.Params{NCPU: c.NCPU, Scale: c.Scale, Seed: GoldenSeed}
}

// Entry is one corpus file with the golden a fresh run computes for it.
type Entry struct {
	Label  string // the benchmark, or bench/ncpuN for a wide cell
	File   string // the file name within the corpus directory
	Golden *Golden
}

// Corpus runs every corpus entry of the named benchmarks (none = all
// six): each benchmark at scale and seed, then its wide cells at their
// fixed parameters, on up to workers concurrent simulations (0 =
// GOMAXPROCS).
func Corpus(ctx context.Context, scale float64, seed int64, only []string, workers int) ([]Entry, error) {
	sel, err := suite.NewSelection(only...)
	if err != nil {
		return nil, err
	}
	outs, err := core.RunSuiteCtx(ctx, core.Options{Scale: scale, Seed: seed, Select: sel, Workers: workers})
	if err != nil {
		return nil, err
	}
	var entries []Entry
	for _, o := range outs {
		entries = append(entries, Entry{o.Name, GoldenFile(o.Name), Compute(o)})
	}
	var wide []WideCell
	for _, c := range WideCells {
		if sel.Contains(c.Benchmark) {
			wide = append(wide, c)
		}
	}
	wideOuts, err := runWide(ctx, wide, workers)
	if err != nil {
		return nil, err
	}
	for i, c := range wide {
		entries = append(entries, Entry{fmt.Sprintf("%s/ncpu%d", c.Benchmark, c.NCPU), c.File(), Compute(wideOuts[i])})
	}
	return entries, nil
}

// runWide simulates each cell under the paper's three models on one
// engine and returns one outcome per cell, in order.
func runWide(ctx context.Context, cells []WideCell, workers int) ([]*core.Outcome, error) {
	models := []core.Model{core.ModelQueue, core.ModelTTS, core.ModelWO}
	outs := make([]*core.Outcome, len(cells))
	var tasks []engine.Task
	for i, c := range cells {
		b, err := suite.ByName(c.Benchmark)
		if err != nil {
			return nil, err
		}
		outs[i] = &core.Outcome{Name: c.Benchmark, Paper: b.Paper, Params: c.Params(),
			Results: make(map[core.Model]*machine.Result, len(models))}
		for _, m := range models {
			tasks = append(tasks, engine.Task{Program: b.Program, Params: c.Params(),
				Label: m.String(), Config: m.MachineConfig(machine.DefaultConfig())})
		}
	}
	results, _, err := engine.New(engine.Config{Workers: workers}).Run(ctx, tasks)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		o := outs[i/len(models)]
		o.Ideal = r.Ideal
		o.Results[models[i%len(models)]] = r.Result
	}
	return outs, nil
}

// round3 quantises to 3 decimals so float formatting is stable across
// regeneration and comparison is exact.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// Compute derives a benchmark's golden snapshot from its outcome.
func Compute(o *core.Outcome) *Golden {
	g := &Golden{
		Benchmark: o.Name,
		Scale:     o.Params.Scale,
		Seed:      o.Params.Seed,
		Ideal: IdealGolden{
			NCPU:        o.Ideal.NCPU,
			WorkCycles:  round3(o.Ideal.WorkCycles),
			Refs:        round3(o.Ideal.Refs),
			DataRefs:    round3(o.Ideal.DataRefs),
			SharedRefs:  round3(o.Ideal.SharedRefs),
			LockPairs:   round3(o.Ideal.LockPairs),
			NestedLocks: round3(o.Ideal.NestedLocks),
			AvgHeld:     round3(o.Ideal.AvgHeld),
			PctTime:     round3(o.Ideal.PctTime),
			Locks:       o.Ideal.Locks,
		},
		Models: make(map[string]ModelGolden, len(o.Results)),
	}
	for model, res := range o.Results {
		cachePct, lockPct, otherPct := res.StallBreakdown()
		g.Models[model.String()] = ModelGolden{
			RunTime:       res.RunTime,
			UtilPct:       round3(100 * res.AvgUtilization()),
			CacheStallPct: round3(cachePct),
			LockStallPct:  round3(lockPct),
			OtherStallPct: round3(otherPct),
			BusUtilPct:    round3(100 * res.BusUtilization()),
			ReadHitPct:    round3(100 * res.ReadHitRatio()),
			WriteHitPct:   round3(100 * res.WriteHitRatio()),
			Acquisitions:  res.Locks.Acquisitions,
			Transfers:     res.Locks.Transfers,
			AvgHold:       round3(res.Locks.AvgHold()),
			AvgWaiters:    round3(res.Locks.AvgWaitersAtTransfer()),
			AvgXferHold:   round3(res.Locks.AvgTransferHold()),
			AvgXferTime:   round3(res.Locks.AvgTransferTime()),
			BusTxns:       res.Bus.Total(),
		}
	}
	return g
}

// Compare returns a human-readable list of differences between a freshly
// computed golden and the committed one; empty means no drift.
func Compare(got, want *Golden) []string {
	var diffs []string
	add := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	if got.Benchmark != want.Benchmark {
		add("benchmark: got %q, committed %q", got.Benchmark, want.Benchmark)
	}
	if got.Scale != want.Scale || got.Seed != want.Seed {
		add("params: got scale=%g seed=%d, committed scale=%g seed=%d",
			got.Scale, got.Seed, want.Scale, want.Seed)
	}
	if got.Ideal != want.Ideal {
		add("ideal: got %+v, committed %+v", got.Ideal, want.Ideal)
	}
	models := make(map[string]bool, len(got.Models)+len(want.Models))
	for m := range got.Models {
		models[m] = true
	}
	for m := range want.Models {
		models[m] = true
	}
	names := make([]string, 0, len(models))
	for m := range models {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		g, okG := got.Models[m]
		w, okW := want.Models[m]
		switch {
		case !okG:
			add("model %s: missing from this run, committed %+v", m, w)
		case !okW:
			add("model %s: not in the committed golden, got %+v", m, g)
		case g != w:
			add("model %s: got %+v, committed %+v", m, g, w)
		}
	}
	return diffs
}

// Save writes a golden snapshot as stable, indented JSON.
func Save(path string, g *Golden) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return fmt.Errorf("check: encoding golden %s: %w", g.Benchmark, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a committed golden snapshot.
func Load(path string) (*Golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g Golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("check: decoding %s: %w", path, err)
	}
	return &g, nil
}
