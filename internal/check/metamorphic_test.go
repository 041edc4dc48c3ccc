package check

import (
	"context"
	"testing"

	"syncsim/internal/core"
	"syncsim/internal/machine"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
	"syncsim/internal/workload/suite"
)

// Metamorphic tests: relations that must hold between runs without knowing
// any absolute result, complementing the goldens' exact pinning.

// runSuite runs the full suite once and indexes the outcomes by name.
func runSuite(t *testing.T, opts core.Options) map[string]*core.Outcome {
	t.Helper()
	outs, err := core.RunSuiteCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*core.Outcome, len(outs))
	for _, o := range outs {
		byName[o.Name] = o
	}
	return byName
}

// TestMetamorphicDeterminism: the engine's worker count must not leak into
// results, and the same seed must reproduce every metric exactly.
func TestMetamorphicDeterminism(t *testing.T) {
	opts := core.NewOptions(core.WithScale(GoldenScale), core.WithSeed(GoldenSeed), core.WithOnly("Grav", "Qsort"))
	opts.Workers = 1
	serial := runSuite(t, opts)
	opts.Workers = 8
	wide := runSuite(t, opts)
	for name, s := range serial {
		w, ok := wide[name]
		if !ok {
			t.Fatalf("%s missing from the 8-worker run", name)
		}
		for _, d := range Compare(Compute(s), Compute(w)) {
			t.Errorf("%s: workers=1 vs workers=8: %s", name, d)
		}
	}
}

// TestMetamorphicQueueBeatsTTS: on the paper's lock-intensive benchmarks
// queuing locks must never run slower than test&test&set (§3.2 — T&T&S adds
// invalidation traffic and wasted spin acquisitions at every release).
func TestMetamorphicQueueBeatsTTS(t *testing.T) {
	outs := runSuite(t, core.NewOptions(core.WithScale(GoldenScale), core.WithSeed(GoldenSeed), core.WithOnly("Grav", "Pdsa")))
	for name, o := range outs {
		q, tts := o.Results[core.ModelQueue], o.Results[core.ModelTTS]
		if q.RunTime > tts.RunTime {
			t.Errorf("%s: queue lock run time %d exceeds test&test&set %d", name, q.RunTime, tts.RunTime)
		}
		if q.Locks.Acquisitions > tts.Locks.Acquisitions {
			t.Errorf("%s: queue acquisitions %d exceed test&test&set %d — spinning should only add acquisitions",
				name, q.Locks.Acquisitions, tts.Locks.Acquisitions)
		}
	}
}

// TestMetamorphicWeakOrderingNotSlower: weak ordering hides write latency,
// so it must not run meaningfully slower than sequential consistency with
// the same locks. Buffer-drain effects at sync points can cost a hair (the
// paper's Table 7 shows near-parity on lock-bound programs), so allow 2%.
func TestMetamorphicWeakOrderingNotSlower(t *testing.T) {
	outs := runSuite(t, core.Options{Scale: GoldenScale, Seed: GoldenSeed})
	for name, o := range outs {
		sc, wo := o.Results[core.ModelQueue], o.Results[core.ModelWO]
		if float64(wo.RunTime) > 1.02*float64(sc.RunTime) {
			t.Errorf("%s: weak ordering run time %d is more than 2%% over sequential consistency %d",
				name, wo.RunTime, sc.RunTime)
		}
	}
}

// TestMetamorphicRuntimeMonotoneInScale: a strictly larger workload must
// take strictly longer on the same machine.
func TestMetamorphicRuntimeMonotoneInScale(t *testing.T) {
	bench, err := suite.ByName("Grav")
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.MaxCycles = 100_000_000
	var prev uint64
	for _, scale := range []float64{0.02, 0.05, 0.1} {
		set, err := bench.Program.Generate(workload.Params{Scale: scale, Seed: GoldenSeed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := machine.Run(set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.RunTime <= prev {
			t.Fatalf("scale %g: run time %d not above the smaller scale's %d", scale, res.RunTime, prev)
		}
		prev = res.RunTime
	}
}

// TestMetamorphicCloneIndependence: simulating a clone must not disturb the
// original set (the differential harness depends on this).
func TestMetamorphicCloneIndependence(t *testing.T) {
	bench, err := suite.ByName("Pdsa")
	if err != nil {
		t.Fatal(err)
	}
	set, err := bench.Program.Generate(workload.Params{Scale: GoldenScale, Seed: GoldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := trace.Clone(set)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := trace.Clone(set)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.MaxCycles = 50_000_000
	r1, err := machine.Run(c1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := machine.Run(c2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.RunTime != r2.RunTime || r1.Locks.Acquisitions != r2.Locks.Acquisitions {
		t.Errorf("clones diverged: run %d vs %d, acquisitions %d vs %d",
			r1.RunTime, r2.RunTime, r1.Locks.Acquisitions, r2.Locks.Acquisitions)
	}
}
