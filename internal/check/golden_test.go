package check

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenCorpusFresh is the in-process twin of `go run ./cmd/goldens`:
// a fresh simulation of every benchmark, and of every wide cell, must
// match the committed corpus exactly. Any intended behaviour change must
// regenerate the corpus with `go run ./cmd/goldens -update` in the same
// commit.
func TestGoldenCorpusFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite regeneration")
	}
	entries, err := Corpus(context.Background(), GoldenScale, GoldenSeed, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		want, err := Load(filepath.Join("testdata", "goldens", e.File))
		if err != nil {
			t.Fatalf("%s: %v (regenerate with `go run ./cmd/goldens -update`)", e.Label, err)
		}
		for _, d := range Compare(e.Golden, want) {
			t.Errorf("%s drifted from the committed golden: %s", e.Label, d)
		}
	}
}

func TestGoldenSaveLoadRoundTrip(t *testing.T) {
	g := &Golden{
		Benchmark: "Toy",
		Scale:     0.5,
		Seed:      9,
		Ideal:     IdealGolden{NCPU: 4, WorkCycles: 123.456, Locks: 2},
		Models: map[string]ModelGolden{
			"queue": {RunTime: 1000, UtilPct: 81.25, Acquisitions: 7},
			"wo":    {RunTime: 900, UtilPct: 90.125},
		},
	}
	path := filepath.Join(t.TempDir(), "toy.json")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Compare(g, back); len(diffs) != 0 {
		t.Errorf("round trip changed the golden: %v", diffs)
	}
}

func TestCompareDetectsDrift(t *testing.T) {
	base := func() *Golden {
		return &Golden{
			Benchmark: "Toy",
			Scale:     0.02,
			Seed:      1,
			Ideal:     IdealGolden{NCPU: 4, Refs: 10},
			Models: map[string]ModelGolden{
				"queue": {RunTime: 1000, Acquisitions: 7},
				"tts":   {RunTime: 1200, Acquisitions: 7},
			},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Golden)
		want   string
	}{
		{"runtime", func(g *Golden) { m := g.Models["queue"]; m.RunTime++; g.Models["queue"] = m }, "model queue"},
		{"ideal", func(g *Golden) { g.Ideal.Refs = 11 }, "ideal"},
		{"params", func(g *Golden) { g.Seed = 2 }, "params"},
		{"missing model", func(g *Golden) { delete(g.Models, "tts") }, "model tts: missing"},
		{"extra model", func(g *Golden) { g.Models["wo"] = ModelGolden{} }, "model wo: not in the committed"},
		{"name", func(g *Golden) { g.Benchmark = "Other" }, "benchmark"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := base()
			got := base()
			if diffs := Compare(got, want); len(diffs) != 0 {
				t.Fatalf("identical goldens diff: %v", diffs)
			}
			tc.mutate(got)
			diffs := Compare(got, want)
			if len(diffs) != 1 {
				t.Fatalf("diffs = %v, want exactly one", diffs)
			}
			if !strings.Contains(diffs[0], tc.want) {
				t.Errorf("diff %q does not mention %q", diffs[0], tc.want)
			}
		})
	}
}
