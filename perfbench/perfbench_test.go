package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestSameSeedSameRequests(t *testing.T) {
	a := newServeMix((&env{seed: 7}).rng("serve-mix/requests"))
	b := newServeMix((&env{seed: 7}).rng("serve-mix/requests"))
	c := newServeMix((&env{seed: 8}).rng("serve-mix/requests"))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("serve-mix: the same seed gave different request sequences")
	}
	if reflect.DeepEqual(a.seqs, c.seqs) || reflect.DeepEqual(a.hot, c.hot) {
		t.Fatal("serve-mix: different seeds gave the same requests")
	}

	f1 := newFleetMix((&env{seed: 7}).rng("fleet-sweep/requests"))
	f2 := newFleetMix((&env{seed: 7}).rng("fleet-sweep/requests"))
	f3 := newFleetMix((&env{seed: 8}).rng("fleet-sweep/requests"))
	if !reflect.DeepEqual(f1, f2) {
		t.Fatal("fleet-sweep: the same seed gave different sweep sequences")
	}
	if reflect.DeepEqual(f1.seq, f3.seq) {
		t.Fatal("fleet-sweep: different seeds gave the same sweeps")
	}

	g1 := (&env{seed: 7}).rng("paper-suite/generation").Int64N(1 << 31)
	g2 := (&env{seed: 8}).rng("paper-suite/generation").Int64N(1 << 31)
	if g1 == g2 || !reflect.DeepEqual(paperCells(g1), paperCells(g1)) {
		t.Fatal("paper-suite: generation seed does not follow the seed")
	}
}

// TestServeMixShape pins the properties the metrics rely on: predict
// calibration is held out from every requested seed, paired cold
// requests sit at the same position of both clients, and every block of
// a sequence has the deck's class counts.
func TestServeMixShape(t *testing.T) {
	m := newServeMix((&env{seed: 3}).rng("serve-mix/requests"))
	if m.calSeed >= mixSeedBase {
		t.Fatalf("calibration seed %d not below the mix seeds", m.calSeed)
	}
	for c, seq := range m.seqs {
		for i, it := range seq {
			for _, s := range []int64{it.sim.Seed, it.pred.Seed, it.an.Seed} {
				if s != 0 && s < mixSeedBase {
					t.Fatalf("client %d item %d: seed %d overlaps calibration seeds", c, i, s)
				}
			}
			if it.pair > 0 && !reflect.DeepEqual(it, m.seqs[1-c][i]) {
				t.Fatalf("paired item %d differs between clients", i)
			}
		}
	}
	counts := map[string]int{}
	for _, c := range serveDeck {
		counts[c]++
	}
	// The second block holds no paired item (pairs sit at 30, 90, ...).
	n := len(serveDeck)
	got := map[string]int{}
	for _, it := range m.seqs[0][n : 2*n] {
		if it.pair > 0 {
			t.Fatal("second block holds a paired item; adjust the test to the pair spacing")
		}
		got[it.class]++
	}
	if !reflect.DeepEqual(got, counts) {
		t.Fatalf("second block class counts %v, want %v", got, counts)
	}
	// New-config requests draw their benchmark from a bag: over a whole
	// sequence each benchmark gets nearly the same number (paired cold
	// items overwrite a few).
	for c, seq := range m.seqs {
		per := map[string]int{}
		for _, it := range seq {
			if it.class == "new-config" {
				per[it.sim.Bench]++
			}
		}
		lo, hi := len(seq), 0
		for _, b := range serveBenches {
			lo, hi = min(lo, per[b]), max(hi, per[b])
		}
		if lo == 0 || hi-lo > 10 {
			t.Fatalf("client %d: new-config requests per benchmark %v, want nearly equal counts", c, per)
		}
	}
}

func TestBagDealsEachOncePerRound(t *testing.T) {
	b := &bag{rng: (&env{seed: 5}).rng("bag"), xs: serveBenches}
	for round := 0; round < 4; round++ {
		seen := map[string]int{}
		for range serveBenches {
			seen[b.next()]++
		}
		for _, x := range serveBenches {
			if seen[x] != 1 {
				t.Fatalf("round %d dealt %v, want each of %v once", round, seen, serveBenches)
			}
		}
	}
}

func TestMetricTablesMatchManifest(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var doc struct {
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	conv := func(ms []metricDef) []entry {
		var out []entry
		for _, m := range ms {
			out = append(out, entry{m.name, m.unit, m.better})
		}
		return out
	}
	if got := conv(endToEnd); !reflect.DeepEqual(doc.EndToEnd, got) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, program prints %v", doc.EndToEnd, got)
	}
	if got := conv(perLayer); !reflect.DeepEqual(doc.PerLayer, got) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's table")
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", n)
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		label string
	}{{5, "max"}, {19, "max"}, {20, "p50.0"}, {100, "p90.0"}, {1000, "p99.0"}, {150, "p93.3"}, {100000, "p99.9"}} {
		_, label := tail(seq(tc.n))
		if label != tc.label {
			t.Errorf("tail of %d samples labelled %s, want %s", tc.n, label, tc.label)
		}
	}
	if v, _ := tail(seq(5)); v != 5 {
		t.Errorf("tail of 1..5 = %v, want the maximum 5", v)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Layer: "client", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Layer: "server", Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Layer: "server", Start: 2 * ms, End: 5 * ms},
		{ID: 4, Parent: 1, Layer: "store", Start: 7 * ms, End: 8 * ms},
		{ID: 5, Parent: 1, Layer: "store", Start: 9 * ms, End: 12 * ms}, // clipped at 10
	}
	self := selfTimes(spans)
	if got := self[1]; got != 4*time.Millisecond {
		t.Fatalf("client self time %v, want 4ms (10ms minus [1,5]∪[7,8]∪[9,10])", got)
	}
	sh := layerShares(spans)
	total := sh["client"] + sh["server"] + sh["store"]
	if total < 99.999 || total > 100.001 || sh["machine"] != 0 {
		t.Fatalf("shares %v do not sum to 100 over the spans' layers", sh)
	}
}
