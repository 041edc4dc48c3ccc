package suite

import (
	"math"
	"testing"

	"syncsim/internal/trace"
	"syncsim/internal/workload"
	"syncsim/internal/workload/addr"
)

func TestAllHasSixBenchmarksInTableOrder(t *testing.T) {
	want := []string{"Grav", "Pdsa", "FullConn", "Pverify", "Qsort", "Topopt"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("Grav")
	if err != nil || b.Program.Name() != "Grav" {
		t.Fatalf("ByName(Grav) = %v, %v", b, err)
	}
	if _, err := ByName("Nope"); err == nil {
		t.Fatal("ByName accepted unknown benchmark")
	}
}

func TestPaperStatsMatchTable1(t *testing.T) {
	// Spot-check the transcribed table values.
	g, _ := ByName("Grav")
	if g.Paper.NCPU != 10 || g.Paper.WorkKCycles != 2841 || g.Paper.LockPairs != 6389 {
		t.Errorf("Grav paper stats wrong: %+v", g.Paper)
	}
	tp, _ := ByName("Topopt")
	if tp.Paper.NCPU != 9 || tp.Paper.LockPairs != 0 {
		t.Errorf("Topopt paper stats wrong: %+v", tp.Paper)
	}
}

// scaleFor gives each benchmark a test scale small enough to be fast but
// large enough that size floors (Qsort's cache-dwarfing array) do not
// distort the extensive statistics.
func scaleFor(name string) float64 {
	if name == "Qsort" {
		return 0.6
	}
	return 0.1
}

func generate(t *testing.T, b Benchmark, seed int64) *trace.Set {
	t.Helper()
	set, err := b.Program.Generate(workload.Params{Scale: scaleFor(b.Program.Name()), Seed: seed})
	if err != nil {
		t.Fatalf("%s: %v", b.Program.Name(), err)
	}
	return set
}

func TestGeneratedTracesAreWellFormed(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Program.Name(), func(t *testing.T) {
			t.Parallel()
			set := generate(t, b, 1)
			cpus := make([][]trace.Event, set.NCPU())
			for i, src := range set.Sources {
				cpus[i] = trace.Drain(src)
			}
			if err := trace.Validate(cpus); err != nil {
				t.Fatalf("malformed trace: %v", err)
			}
			if set.NCPU() != b.Paper.NCPU {
				t.Errorf("NCPU = %d, want %d", set.NCPU(), b.Paper.NCPU)
			}
		})
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Program.Name(), func(t *testing.T) {
			t.Parallel()
			s1 := trace.AnalyzeIdeal(generate(t, b, 7), addr.Shared).Summarize()
			s2 := trace.AnalyzeIdeal(generate(t, b, 7), addr.Shared).Summarize()
			if s1 != s2 {
				t.Fatalf("same seed, different stats:\n%+v\n%+v", s1, s2)
			}
		})
	}
}

func TestSeedChangesTrace(t *testing.T) {
	b, _ := ByName("Pdsa")
	s1 := trace.AnalyzeIdeal(generate(t, b, 1), addr.Shared).Summarize()
	s2 := trace.AnalyzeIdeal(generate(t, b, 2), addr.Shared).Summarize()
	if s1.WorkCycles == s2.WorkCycles && s1.Refs == s2.Refs {
		t.Fatal("different seeds produced identical traces")
	}
}

func within(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/want <= tol
}

// TestCalibration asserts every generator's ideal statistics stay within
// tolerance of the paper's Tables 1-2 (per-CPU averages; extensive
// quantities compared after dividing by the scale).
func TestCalibration(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Program.Name(), func(t *testing.T) {
			t.Parallel()
			scale := scaleFor(b.Program.Name())
			set := generate(t, b, 1)
			s := trace.AnalyzeIdeal(set, addr.Shared).Summarize()
			paper := b.Paper

			check := func(metric string, got, want, tol float64) {
				if !within(got, want, tol) {
					t.Errorf("%s: got %.1f, paper %.1f (tolerance %.0f%%)",
						metric, got, want, 100*tol)
				}
			}
			// Extensive quantities, normalised by scale. The generators
			// are calibrated at scale 1; small scales suffer integer
			// granularity, so the bands are generous.
			check("work kcycles", s.WorkCycles/1000/scale, paper.WorkKCycles, 0.30)
			check("refs k", s.Refs/1000/scale, paper.RefsK, 0.30)
			check("data k", s.DataRefs/1000/scale, paper.DataK, 0.35)
			check("shared k", s.SharedRefs/1000/scale, paper.SharedK, 0.35)
			check("lock pairs", s.LockPairs/scale, paper.LockPairs, 0.35)
			check("nested", s.NestedLocks/scale, paper.NestedLocks, 0.35)
			// Intensive quantities, compared directly.
			if paper.LockPairs > 0 {
				check("avg held", s.AvgHeld, paper.AvgHeld, 0.25)
				if paper.PctTime >= 1 {
					check("% time locked", s.PctTime, paper.PctTime, 0.30)
				} else if s.PctTime > 1 {
					// Sub-1% locked time: absolute comparison.
					t.Errorf("%% time locked: got %.2f, paper %.2f", s.PctTime, paper.PctTime)
				}
			} else if s.LockPairs != 0 {
				t.Errorf("lock-free benchmark emitted %v lock pairs", s.LockPairs)
			}
			// Shared fraction of data references.
			if paper.DataK > 0 {
				check("shared fraction", s.SharedRefs/s.DataRefs,
					paper.SharedK/paper.DataK, 0.20)
			}
		})
	}
}

// TestNestingStructure verifies the Presto programs nest locks and the C
// programs never do, per Table 2.
func TestNestingStructure(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Program.Name(), func(t *testing.T) {
			t.Parallel()
			set := generate(t, b, 1)
			stats := trace.AnalyzeIdeal(set, addr.Shared)
			var nested uint64
			maxNest := 0
			for _, c := range stats.CPUs {
				nested += c.NestedLocks
				if c.MaxNest > maxNest {
					maxNest = c.MaxNest
				}
			}
			if b.Paper.NestedLocks > 0 {
				if nested == 0 {
					t.Error("Presto program has no nested locks")
				}
				if maxNest != 2 {
					t.Errorf("max nesting depth = %d, want 2 (sched + queue)", maxNest)
				}
			} else if nested != 0 {
				t.Errorf("C program has %d nested locks, want 0", nested)
			}
		})
	}
}

func TestCustomNCPU(t *testing.T) {
	b, _ := ByName("Topopt")
	set, err := b.Program.Generate(workload.Params{NCPU: 4, Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if set.NCPU() != 4 {
		t.Fatalf("NCPU = %d, want 4", set.NCPU())
	}
}

func TestInvalidParamsRejected(t *testing.T) {
	for _, b := range All() {
		if _, err := b.Program.Generate(workload.Params{NCPU: -1}); err == nil {
			t.Errorf("%s accepted negative NCPU", b.Program.Name())
		}
	}
}

// maxBytesPerEvent pins each benchmark's resident trace density. The
// densities measured at this test's scale 0.01, seed 1 are Grav 1.481,
// Pdsa 1.731, FullConn 1.952, Pverify 1.982, Qsort 2.278 and Topopt
// 1.982 B/event; each bound adds a 5% margin. Other seeds move them by
// under 0.015; at scale 0.2 Grav reads 1.54 and Pdsa 1.78, the rest
// within 0.015.
var maxBytesPerEvent = map[string]float64{
	"Grav": 1.56, "Pdsa": 1.82, "FullConn": 2.05,
	"Pverify": 2.08, "Qsort": 2.39, "Topopt": 2.08,
}

// TestCompactDensity re-encodes every generated CPU trace into a Compact
// (the encoding depends only on the events, so the sizes are those of the
// generated set) and checks each benchmark's bytes per event.
func TestCompactDensity(t *testing.T) {
	for _, b := range All() {
		name := b.Program.Name()
		set, err := b.Program.Generate(workload.Params{Scale: 0.01, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var bytes, events int
		for _, src := range set.Sources {
			var c trace.Compact
			for ev, ok := src.Next(); ok; ev, ok = src.Next() {
				c.Add(ev)
			}
			bytes += c.Bytes()
			events += c.Len()
		}
		density := float64(bytes) / float64(events)
		t.Logf("%s: %d events, %.3f B/event", name, events, density)
		if density > maxBytesPerEvent[name] {
			t.Errorf("%s: %.3f B/event, bound %.2f", name, density, maxBytesPerEvent[name])
		}
	}
}
