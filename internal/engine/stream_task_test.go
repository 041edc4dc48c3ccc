package engine

import (
	"context"
	"reflect"
	"testing"

	"syncsim/internal/machine"
	"syncsim/internal/workload"
	"syncsim/internal/workload/qsort"
)

// A streaming task must bypass the cache (counted in CacheStats.Bypassed),
// skip ideal analysis, and still produce the exact Result of the
// materialised path.
func TestStreamTaskBypassesCache(t *testing.T) {
	prog := qsort.New()
	p := workload.Params{NCPU: 4, Scale: 0.02, Seed: 5}
	cfg := machine.DefaultConfig()

	e := New(Config{Workers: 1})
	base := Task{Program: prog, Params: p, Label: "materialised", Config: cfg}
	stream := Task{Program: prog, Params: p, Label: "streamed", Config: cfg, Stream: true}

	results, rep, err := e.Run(context.Background(), []Task{base, stream})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheMisses != 1 || rep.CacheHits != 0 {
		t.Errorf("suite cache misses/hits = %d/%d, want 1/0 (a stream makes no lookup)", rep.CacheMisses, rep.CacheHits)
	}
	st := e.Cache().Stats()
	if st.Bypassed != 1 {
		t.Fatalf("Bypassed = %d, want 1", st.Bypassed)
	}
	if st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1 (streaming task must not touch the cache)", st.Misses)
	}
	if results[1].Ideal.Refs != 0 {
		t.Fatalf("streaming task computed ideal stats: %+v", results[1].Ideal)
	}
	if results[0].Ideal.Refs == 0 {
		t.Fatal("materialised task lost its ideal stats")
	}
	// Sched counts the run loop's own work: the streamed run cannot rewind
	// its sources, so it runs without leases.
	results[0].Result.Sched, results[1].Result.Sched = machine.SchedStats{}, machine.SchedStats{}
	if !reflect.DeepEqual(results[0].Result, results[1].Result) {
		t.Fatalf("streamed result differs from materialised:\n got %+v\nwant %+v",
			results[1].Result, results[0].Result)
	}
}

func TestStreamIdealOnlyRejected(t *testing.T) {
	e := New(Config{Workers: 1})
	_, _, err := e.Run(context.Background(), []Task{{
		Program: qsort.New(), Params: workload.Params{NCPU: 2, Scale: 0.01},
		Stream: true, IdealOnly: true, Config: machine.DefaultConfig(),
	}})
	if err == nil {
		t.Fatal("Stream+IdealOnly accepted")
	}
}
