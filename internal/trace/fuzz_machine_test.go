package trace_test

import (
	"bytes"
	"errors"
	"testing"

	"syncsim/internal/cache"
	"syncsim/internal/locks"
	"syncsim/internal/machine"
	"syncsim/internal/trace"
)

// fuzzCaps bound each fuzz execution so the corpus explores machine
// behaviour rather than simulation length.
const (
	fuzzMaxCPUs   = 8
	fuzzMaxEvents = 2048
	fuzzMaxWork   = 100_000 // total Exec cycles across all CPUs
)

// runnable is the fuzzers' well-formedness gate: trace.Validate's rules,
// except that a zero-length burst (Exec(0)) is allowed. trace.DecodeSet
// accepts it on the run path, and every scheduler must round it up to one
// cycle, as the polling loop does.
func runnable(cpus [][]trace.Event) bool {
	probe := make([][]trace.Event, len(cpus))
	for i, evs := range cpus {
		probe[i] = append([]trace.Event(nil), evs...)
		for j, ev := range probe[i] {
			if ev.Kind == trace.KindExec && ev.Arg == 0 {
				probe[i][j].Arg = 1
			}
		}
	}
	return trace.Validate(probe) == nil
}

// FuzzMachine drives the full machine — with the invariant checker enabled —
// on arbitrary decoded traces. The decoder and runnable act as the
// well-formedness gate; anything that passes them must simulate without a
// panic and, above all, without tripping a coherence, conservation, or lock
// invariant. Resource-limit errors (MaxCycles, progress window) are fine;
// ErrInvariant means the simulator itself is broken.
func FuzzMachine(f *testing.F) {
	add := func(name string, cpus [][]trace.Event) {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, name, cpus); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	const lk = 0x2000_0040
	add("contended", [][]trace.Event{
		{trace.Exec(3), trace.Lock(1, lk), trace.Exec(20), trace.Unlock(1, lk), trace.Barrier(1), trace.End()},
		{trace.Lock(1, lk), trace.Exec(10), trace.Unlock(1, lk), trace.Barrier(1), trace.End()},
	})
	add("sharing", [][]trace.Event{
		{trace.Read(0x1000), trace.Write(0x1000), trace.Read(0x2000), trace.End()},
		{trace.Read(0x1000), trace.Write(0x2000), trace.ReadAfter(0x1000, 4), trace.End()},
	})
	add("solo", [][]trace.Event{{trace.Exec(1), trace.End()}})
	add("zero burst", [][]trace.Event{
		{trace.Exec(3), trace.Barrier(0), trace.Exec(0), trace.Exec(5), trace.End()},
		{trace.Barrier(0), trace.Exec(0), trace.Read(0x1000), trace.End()},
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		_, cpus, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(cpus) == 0 || len(cpus) > fuzzMaxCPUs {
			return
		}
		events, work := 0, uint64(0)
		for _, evs := range cpus {
			events += len(evs)
			for _, ev := range evs {
				if ev.Kind == trace.KindExec {
					work += uint64(ev.Arg)
				}
			}
		}
		if events > fuzzMaxEvents || work > fuzzMaxWork {
			return
		}
		if !runnable(cpus) {
			return
		}

		cfg := machine.DefaultConfig()
		// A tiny direct-mapped cache forces evictions and write-backs even
		// on short traces, which is where coherence bugs hide.
		cfg.Cache = cache.Config{Size: 512, LineSize: 16, Assoc: 1}
		cfg.Check = true
		cfg.MaxCycles = 5_000_000
		// Let the input pick the machine flavour too.
		algs := []locks.Algorithm{locks.Queue, locks.TTS, locks.QueueExact, locks.TTSBackoff}
		cfg.Lock = algs[len(data)%len(algs)]
		if len(data)%2 == 1 {
			cfg.Consistency = machine.WeakOrdering
		}

		_, err = machine.Run(trace.BufferSet("fuzz", cpus), cfg)
		if err != nil && errors.Is(err, machine.ErrInvariant) {
			t.Fatalf("invariant violated on a valid trace: %v", err)
		}
	})
}
