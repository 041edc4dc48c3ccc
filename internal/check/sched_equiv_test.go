package check

import (
	"context"
	"reflect"
	"testing"

	"syncsim/internal/core"
	"syncsim/internal/engine"
	"syncsim/internal/machine"
	"syncsim/internal/workload"
	"syncsim/internal/workload/suite"
)

var equivModels = []core.Model{core.ModelQueue, core.ModelTTS, core.ModelWO}

// schedEquivSuite runs the full benchmark suite at the golden corpus scale
// under the given scheduler.
func schedEquivSuite(t *testing.T, sched machine.SchedKind) []*core.Outcome {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Sched = sched
	outs, err := core.RunSuiteCtx(context.Background(), core.Options{
		Scale:   GoldenScale,
		Seed:    GoldenSeed,
		Machine: &cfg,
	})
	if err != nil {
		t.Fatalf("suite under %v scheduler: %v", sched, err)
	}
	return outs
}

// leaseFreeSuite runs the full benchmark suite at the golden corpus scale
// under the default calendar, as streamed engine tasks. A streamed trace
// cannot rewind, so the calendar runs without leases: every processor
// visit is a serial step.
func leaseFreeSuite(t *testing.T) []*core.Outcome {
	t.Helper()
	params := workload.Params{Scale: GoldenScale, Seed: GoldenSeed}
	benches := suite.All()
	var tasks []engine.Task
	for _, b := range benches {
		for _, model := range equivModels {
			tasks = append(tasks, engine.Task{
				Program: b.Program, Params: params, Label: model.String(),
				Config: model.MachineConfig(machine.DefaultConfig()), Stream: true,
			})
		}
	}
	results, _, err := engine.New(engine.Config{}).Run(context.Background(), tasks)
	if err != nil {
		t.Fatalf("lease-free suite: %v", err)
	}
	outs := make([]*core.Outcome, len(benches))
	for i, b := range benches {
		outs[i] = &core.Outcome{Name: b.Program.Name(), Results: make(map[core.Model]*machine.Result)}
		for j, model := range equivModels {
			res := results[i*len(equivModels)+j].Result
			if res.Sched.LeasedSteps != 0 {
				t.Fatalf("%s/%v: the lease-free reference leased %d steps", outs[i].Name, model, res.Sched.LeasedSteps)
			}
			outs[i].Results[model] = res
		}
	}
	return outs
}

// assertSuitesEqual pins two suite runs bit-for-bit: every Result field —
// run time, every per-CPU stall counter, cache/bus/memory/lock statistics —
// must be identical across all six benchmarks and all three machine models.
// Only Config (which records the scheduler choice) and Sched (the loop's
// own work counters, whose difference IS the optimisation) are excluded.
func assertSuitesEqual(t *testing.T, aName, bName string, a, b []*core.Outcome) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("outcome counts differ: %s %d vs %s %d", aName, len(a), bName, len(b))
	}
	for i := range a {
		ao, bo := a[i], b[i]
		if ao.Name != bo.Name {
			t.Fatalf("benchmark order diverged: %s vs %s", ao.Name, bo.Name)
		}
		for _, model := range equivModels {
			ar, ok := ao.Results[model]
			if !ok {
				t.Fatalf("%s/%v: missing %s result", ao.Name, model, aName)
			}
			br := bo.Results[model]
			av, bv := *ar, *br
			av.Config, bv.Config = machine.Config{}, machine.Config{}
			av.Sched, bv.Sched = machine.SchedStats{}, machine.SchedStats{}
			if !reflect.DeepEqual(av, bv) {
				t.Errorf("%s/%v: %s and %s results diverge:\n %s: %+v\n %s: %+v",
					ao.Name, model, aName, bName, aName, av, bName, bv)
			}
		}
	}
}

// assertLess fails every benchmark × model cell whose work counter, as
// read by count, is not strictly below the reference run's.
func assertLess(t *testing.T, what, name, refName string, runs, ref []*core.Outcome, count func(machine.SchedStats) uint64) {
	t.Helper()
	for i := range runs {
		for _, model := range equivModels {
			got, want := count(runs[i].Results[model].Sched), count(ref[i].Results[model].Sched)
			if got >= want {
				t.Errorf("%s/%v: %s %s %d, %s %d — no work saved",
					runs[i].Name, model, name, what, got, refName, want)
			}
		}
	}
}

// TestSchedulerEquivalence pins the schedulers to each other bit-for-bit
// across the full benchmark matrix: the retained polling loop is the
// reference for the calendar without leases (over streamed sources, which
// cannot rewind) and for the default calendar, which leases.
func TestSchedulerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 6×3 matrix under three scheduler configurations")
	}
	polling := schedEquivSuite(t, machine.SchedPolling)
	leaseFree := leaseFreeSuite(t)
	calendar := schedEquivSuite(t, machine.SchedCalendar)
	assertSuitesEqual(t, "polling", "lease-free", polling, leaseFree)
	assertSuitesEqual(t, "polling", "calendar", polling, calendar)

	// Each layer must actually be doing less work, not just the same
	// sweep under a new name: the calendar steps only dirty or due
	// processors, and leases collapse each private stretch into a single
	// wakeup at its blocking cycle. (Step counts of leased runs are not
	// compared with the lease-free run — superseded post-rollback wakeups
	// add no-op steps and weak-ordering write stretches merge steps, in
	// both directions, without affecting any architectural result.)
	steps := func(s machine.SchedStats) uint64 { return s.Steps }
	iterations := func(s machine.SchedStats) uint64 { return s.Iterations }
	assertLess(t, "stepped", "lease-free", "polling", leaseFree, polling, steps)
	assertLess(t, "stepped", "calendar", "polling", calendar, polling, steps)
	assertLess(t, "visited", "calendar", "lease-free", calendar, leaseFree, iterations)
}
