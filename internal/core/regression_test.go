package core

import (
	"context"
	"testing"

	"syncsim/internal/workload/suite"
)

// TestPinnedMetrics pins a handful of simulated metrics at a fixed scale
// and seed. Generation and simulation are fully deterministic, so any
// change here is a real behavioural change in the simulator or a workload
// generator — which may be intended, but must be noticed (and EXPERIMENTS.md
// re-validated) rather than slip in silently.
func TestPinnedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned-metric regression test is not short")
	}
	b, err := suite.ByName("Pdsa")
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunBenchmarkCtx(context.Background(), b, Options{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	q := out.Results[ModelQueue]
	tts := out.Results[ModelTTS]
	wo := out.Results[ModelWO]

	// Structural invariants that must hold at any scale.
	if q.Locks.Acquisitions != tts.Locks.Acquisitions ||
		q.Locks.Acquisitions != wo.Locks.Acquisitions {
		t.Errorf("acquisition counts diverge across models: %d/%d/%d",
			q.Locks.Acquisitions, tts.Locks.Acquisitions, wo.Locks.Acquisitions)
	}

	// Pinned behavioural bands (generous: the exact cycle counts may move
	// with legitimate model changes, the relationships must not).
	checkBand := func(name string, got, lo, hi float64) {
		if got < lo || got > hi {
			t.Errorf("%s = %.3f outside pinned band [%.3f, %.3f]", name, got, lo, hi)
		}
	}
	checkBand("queue utilisation", q.AvgUtilization(), 0.30, 0.50)
	checkBand("tts slowdown", float64(tts.RunTime)/float64(q.RunTime), 1.02, 1.25)
	checkBand("wo/queue runtime ratio", float64(wo.RunTime)/float64(q.RunTime), 0.95, 1.05)
	checkBand("queue transfer cycles", q.Locks.AvgTransferTime(), 1.5, 3.5)
	checkBand("tts transfer cycles", tts.Locks.AvgTransferTime(), 15, 40)
	checkBand("queue waiters", q.Locks.AvgWaitersAtTransfer(), 4, 8)

	_, lockPct, _ := q.StallBreakdown()
	checkBand("queue lock-stall share", lockPct, 85, 100)
}

// TestParallelModelsMatchSequential verifies the concurrent model execution
// produces exactly the results of one-at-a-time runs.
func TestParallelModelsMatchSequential(t *testing.T) {
	b, err := suite.ByName("FullConn")
	if err != nil {
		t.Fatal(err)
	}
	all, err := RunBenchmarkCtx(context.Background(), b, Options{Scale: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Model{ModelQueue, ModelTTS, ModelWO} {
		solo, err := RunBenchmarkCtx(context.Background(), b, Options{Scale: 0.05, Seed: 3, Models: []Model{m}})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := solo.Results[m].RunTime, all.Results[m].RunTime; got != want {
			t.Errorf("model %v: solo run-time %d != parallel %d", m, got, want)
		}
		if got, want := solo.Results[m].Locks, all.Results[m].Locks; got != want {
			t.Errorf("model %v: lock stats diverge", m)
		}
	}
}
