package check

import (
	"context"
	"fmt"
	"testing"

	"syncsim/internal/core"
	"syncsim/internal/locks"
	"syncsim/internal/machine"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
	"syncsim/internal/workload/suite"
)

// TestDifferentialAllWorkloads is the tentpole acceptance check: every
// benchmark, under every machine model, must agree with the independent
// oracle with zero divergence — with the runtime invariant checker on.
func TestDifferentialAllWorkloads(t *testing.T) {
	models := []core.Model{core.ModelQueue, core.ModelTTS, core.ModelWO}
	for _, b := range suite.All() {
		for _, model := range models {
			b, model := b, model
			t.Run(b.Program.Name()+"/"+model.String(), func(t *testing.T) {
				t.Parallel()
				set, err := b.Program.Generate(workload.Params{Scale: 0.02, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				cfg := model.MachineConfig(machine.DefaultConfig())
				cfg.MaxCycles = 50_000_000
				rep, err := Differential(context.Background(), set, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Ok() {
					t.Errorf("divergence:\n%s", rep)
				}
			})
		}
	}
}

// TestDifferentialWide runs the golden corpus's wide cells (Grav and
// Topopt at 65 and 128 CPUs) through the differential harness: zero
// divergence from the oracle under every model, with the invariant checker
// validating the multi-word holder index at every periodic sweep.
func TestDifferentialWide(t *testing.T) {
	models := []core.Model{core.ModelQueue, core.ModelTTS, core.ModelWO}
	for _, c := range WideCells {
		for _, model := range models {
			c, model := c, model
			t.Run(fmt.Sprintf("%s/ncpu%d/%s", c.Benchmark, c.NCPU, model), func(t *testing.T) {
				t.Parallel()
				b, err := suite.ByName(c.Benchmark)
				if err != nil {
					t.Fatal(err)
				}
				set, err := b.Program.Generate(c.Params())
				if err != nil {
					t.Fatal(err)
				}
				rep, err := Differential(context.Background(), set, model.MachineConfig(machine.DefaultConfig()))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Ok() {
					t.Errorf("divergence:\n%s", rep)
				}
			})
		}
	}
}

// lockPingPongTrace exercises a contended test&test&set lock across two
// processors: the release-side invalidation is what FaultSkipInvalidate
// breaks, so this trace makes the oracle diff (not just the invariant
// checker) expose the bug.
func lockPingPongTrace() *trace.Set {
	const a = 0x2000_0040
	turn := func() []trace.Event {
		var evs []trace.Event
		for i := 0; i < 4; i++ {
			evs = append(evs, trace.Lock(1, a), trace.Exec(50), trace.Unlock(1, a), trace.Exec(20))
		}
		return evs
	}
	return trace.BufferSet("pingpong", [][]trace.Event{turn(), turn()})
}

// TestDifferentialCatchesInjectedBug proves the harness end-to-end: the
// injected coherence bug must surface as a divergence (the corrupted
// machine errors or disagrees while the oracle is fine), and the invariant
// checker inside the machine must flag it as an ErrInvariant.
func TestDifferentialCatchesInjectedBug(t *testing.T) {
	cfg := machine.DefaultConfig()
	// Test&test&set spinners wake only when the release invalidates their
	// cached copy — exactly the transition FaultSkipInvalidate corrupts.
	cfg.Lock = locks.TTS
	cfg.MaxCycles = 1_000_000

	rep, err := Differential(context.Background(), lockPingPongTrace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("clean machine diverged:\n%s", rep)
	}

	cfg.Fault = machine.FaultSkipInvalidate
	rep, err = Differential(context.Background(), lockPingPongTrace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consistent() {
		t.Fatalf("injected bug not exposed by the differential harness:\n%s", rep)
	}
	if rep.OracleError != nil {
		t.Errorf("oracle failed on a valid trace: %v", rep.OracleError)
	}
	if rep.MachineError == nil && len(rep.Divergences) == 0 {
		t.Error("faulty machine neither errored nor diverged")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{Name: "x"}
	if r.String() != "differential x: ok" {
		t.Errorf("ok rendering = %q", r.String())
	}
	r.diverge("acquisitions", 3, 4)
	if r.Ok() || r.Consistent() {
		t.Error("report with divergences is not ok")
	}
	want := "differential x:\n  acquisitions: machine=3 oracle=4"
	if r.String() != want {
		t.Errorf("rendering = %q, want %q", r.String(), want)
	}
}
