package core

import (
	"errors"
	"strings"
	"testing"

	"syncsim/internal/locks"
	"syncsim/internal/machine"
	"syncsim/internal/workload/suite"
)

func TestModelConfigs(t *testing.T) {
	base := machine.DefaultConfig()
	q := ModelQueue.MachineConfig(base)
	if q.Lock != locks.Queue || q.Consistency != machine.SeqConsistent {
		t.Errorf("queue model = %v/%v", q.Lock, q.Consistency)
	}
	tt := ModelTTS.MachineConfig(base)
	if tt.Lock != locks.TTS || tt.Consistency != machine.SeqConsistent {
		t.Errorf("tts model = %v/%v", tt.Lock, tt.Consistency)
	}
	wo := ModelWO.MachineConfig(base)
	if wo.Lock != locks.Queue || wo.Consistency != machine.WeakOrdering {
		t.Errorf("wo model = %v/%v", wo.Lock, wo.Consistency)
	}
	if ModelQueue.String() != "queue" || ModelTTS.String() != "tts" || ModelWO.String() != "wo" {
		t.Error("model names wrong")
	}
	if Model(9).String() == "" {
		t.Error("invalid model prints empty")
	}
}

func TestParseModel(t *testing.T) {
	for _, m := range Models() {
		if got, err := ParseModel(m.String()); err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", m, got, err, m)
		}
	}
	for _, name := range []string{"bogus", "WO", "Model(3)", ""} {
		if _, err := ParseModel(name); err == nil {
			t.Errorf("ParseModel(%q) accepted an unknown name", name)
		}
	}
	_, err := ParseModel("x")
	if want := `unknown model "x" (want queue, tts, wo)`; err == nil || err.Error() != want {
		t.Errorf("ParseModel(%q) error = %v, want %q", "x", err, want)
	}
}

func TestRunBenchmarkAllModels(t *testing.T) {
	b, err := suite.ByName("Pdsa")
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunBenchmark(b, Options{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "Pdsa" {
		t.Errorf("Name = %q", out.Name)
	}
	if out.Ideal.WorkCycles == 0 || out.Ideal.LockPairs == 0 {
		t.Errorf("ideal stats empty: %+v", out.Ideal)
	}
	for _, m := range []Model{ModelQueue, ModelTTS, ModelWO} {
		res, ok := out.Results[m]
		if !ok {
			t.Fatalf("model %v missing", m)
		}
		if res.RunTime == 0 {
			t.Errorf("model %v has zero run-time", m)
		}
	}
	// The same trace replayed: identical work cycles everywhere.
	var want uint64
	for i := range out.Results[ModelQueue].CPUs {
		want += out.Results[ModelQueue].CPUs[i].WorkCycles
	}
	for _, m := range []Model{ModelTTS, ModelWO} {
		var got uint64
		for i := range out.Results[m].CPUs {
			got += out.Results[m].CPUs[i].WorkCycles
		}
		if got != want {
			t.Errorf("model %v work cycles %d, want %d (same trace)", m, got, want)
		}
	}
	if _, ok := out.Decomposition(); !ok {
		t.Error("decomposition unavailable despite both lock models run")
	}
}

func TestRunBenchmarkSubsetOfModels(t *testing.T) {
	b, _ := suite.ByName("Qsort")
	out, err := RunBenchmark(b, Options{Scale: 0.02, Seed: 1, Models: []Model{ModelQueue}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 {
		t.Fatalf("results = %d models, want 1", len(out.Results))
	}
	if _, ok := out.Decomposition(); ok {
		t.Error("decomposition should need both lock models")
	}
}

func TestRunBenchmarkIdealOnly(t *testing.T) {
	b, _ := suite.ByName("Topopt")
	out, err := RunBenchmark(b, Options{Scale: 0.01, Seed: 1, Models: []Model{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 0 {
		t.Error("no models requested but results present")
	}
	if out.Ideal.WorkCycles == 0 {
		t.Error("ideal stats missing")
	}
}

func TestRunSuiteOnly(t *testing.T) {
	outs, err := RunSuite(Options{
		Scale:  0.02,
		Seed:   1,
		Only:   []string{"Pverify", "Topopt"},
		Models: []Model{ModelQueue},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || outs[0].Name != "Pverify" || outs[1].Name != "Topopt" {
		t.Fatalf("outcomes = %v", names(outs))
	}
}

func TestRunSuiteUnknownOnly(t *testing.T) {
	_, err := RunSuite(Options{Scale: 0.02, Only: []string{"Nope"}})
	if !errors.Is(err, suite.ErrUnknownBenchmark) {
		t.Fatalf("err = %v, want wrapped suite.ErrUnknownBenchmark", err)
	}
	if err == nil || !strings.Contains(err.Error(), "Nope") {
		t.Fatalf("err = %v, want the offending name", err)
	}
}

func TestProgressCallback(t *testing.T) {
	var lines []string
	b, _ := suite.ByName("Topopt")
	_, err := RunBenchmark(b, Options{
		Scale:    0.01,
		Models:   []Model{ModelQueue},
		Progress: func(format string, args ...any) { lines = append(lines, format) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Errorf("progress lines = %d, want ≥2 (generate + simulate)", len(lines))
	}
}

func TestCustomMachineConfig(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Memory.AccessTime = 30 // slow memory
	b, _ := suite.ByName("Qsort")
	slow, err := RunBenchmark(b, Options{Scale: 0.02, Machine: &cfg, Models: []Model{ModelQueue}})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunBenchmark(b, Options{Scale: 0.02, Models: []Model{ModelQueue}})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Results[ModelQueue].RunTime <= fast.Results[ModelQueue].RunTime {
		t.Error("10× memory latency did not slow the run")
	}
}

func names(outs []*Outcome) []string {
	var n []string
	for _, o := range outs {
		n = append(n, o.Name)
	}
	return n
}
