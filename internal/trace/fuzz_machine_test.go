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

// fuzzLocks lists the lock algorithms a fuzz input's lock byte selects
// from. Each sits at the index of its Algorithm value, so a seed passes
// uint8(alg).
var fuzzLocks = []locks.Algorithm{locks.Queue, locks.TTS, locks.QueueExact, locks.TTSBackoff}

// fuzzSeed encodes a seed trace for the machine fuzzers.
func fuzzSeed(f *testing.F, name string, cpus [][]trace.Event) []byte {
	var buf bytes.Buffer
	if err := trace.Encode(&buf, name, cpus); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// sharedReadTrace is a four-processor seed for the calendar's shared-line
// read snoops: cpus 0 and 1 read line x, cpu 2 misses on it at cycle 30
// while both hold it Shared (cpu 0 runs ahead through hits on it under a
// lease), and cpu 3 writes it at cycle 50, taking it from under cpu 0's
// later hits, so cpu 0's lease rolls back after the read snoop.
func sharedReadTrace() [][]trace.Event {
	const x = 0x1000
	reader := []trace.Event{trace.Read(x)}
	for i := 0; i < 12; i++ {
		reader = append(reader, trace.Exec(5), trace.Read(x))
	}
	return [][]trace.Event{
		append(reader, trace.End()),
		{trace.Read(x), trace.Exec(100), trace.End()},
		{trace.Exec(30), trace.Read(x), trace.Exec(10), trace.End()},
		{trace.Exec(50), trace.Write(x), trace.Exec(10), trace.End()},
	}
}

// fuzzTrace decodes a fuzz input and keeps it only if it is small enough to
// simulate quickly and passes trace.Validate, the same gate trace.DecodeSet
// applies on the run path.
func fuzzTrace(data []byte) ([][]trace.Event, bool) {
	_, cpus, err := trace.Decode(bytes.NewReader(data))
	if err != nil || len(cpus) == 0 || len(cpus) > fuzzMaxCPUs {
		return nil, false
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
		return nil, false
	}
	return cpus, trace.Validate(cpus) == nil
}

// fuzzConfig is the checked machine the fuzzers run, with the lock
// algorithm and consistency model the input selects. A tiny direct-mapped
// cache forces evictions and write-backs even on short traces, which is
// where coherence bugs hide.
func fuzzConfig(lock uint8, wo bool) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Cache = cache.Config{Size: 512, LineSize: 16, Assoc: 1}
	cfg.Check = true
	cfg.MaxCycles = 5_000_000
	cfg.Lock = fuzzLocks[int(lock)%len(fuzzLocks)]
	if wo {
		cfg.Consistency = machine.WeakOrdering
	}
	return cfg
}

// FuzzMachine drives the full machine — with the invariant checker enabled —
// on arbitrary decoded traces, under the lock algorithm and consistency
// model the input names. The decoder and trace.Validate act as the
// well-formedness gate; anything that passes them must simulate without a
// panic and, above all, without tripping a coherence, conservation, or lock
// invariant. Resource-limit errors (MaxCycles, progress window) are fine;
// ErrInvariant means the simulator itself is broken.
func FuzzMachine(f *testing.F) {
	add := func(name string, cpus [][]trace.Event, lock locks.Algorithm, cons machine.Consistency) {
		f.Add(fuzzSeed(f, name, cpus), uint8(lock), cons == machine.WeakOrdering)
	}
	const lk = 0x2000_0040
	add("contended", [][]trace.Event{
		{trace.Exec(3), trace.Lock(1, lk), trace.Exec(20), trace.Unlock(1, lk), trace.Barrier(1), trace.End()},
		{trace.Lock(1, lk), trace.Exec(10), trace.Unlock(1, lk), trace.Barrier(1), trace.End()},
	}, locks.QueueExact, machine.SeqConsistent)
	add("sharing", [][]trace.Event{
		{trace.Read(0x1000), trace.Write(0x1000), trace.Read(0x2000), trace.End()},
		{trace.Read(0x1000), trace.Write(0x2000), trace.ReadAfter(0x1000, 4), trace.End()},
	}, locks.QueueExact, machine.SeqConsistent)
	add("solo", [][]trace.Event{{trace.Exec(1), trace.End()}}, locks.TTSBackoff, machine.WeakOrdering)
	add("zero burst", [][]trace.Event{
		{trace.Exec(3), trace.Barrier(0), trace.Exec(0), trace.Exec(5), trace.End()},
		{trace.Barrier(0), trace.Exec(0), trace.Read(0x1000), trace.End()},
	}, locks.TTS, machine.WeakOrdering)
	add("shared read then rollback", sharedReadTrace(), locks.Queue, machine.WeakOrdering)
	// A lock still held at End: trace.Validate must refuse it, since the
	// machine would never release the lock. The Unlock after End is not
	// stored; every Source stops at End.
	add("lock held at end", [][]trace.Event{
		{trace.Exec(48), trace.Lock(1, 0x18), trace.Exec(48), trace.Barrier(48), trace.End(), trace.Unlock(1, 0x30)},
	}, locks.QueueExact, machine.SeqConsistent)

	f.Fuzz(func(t *testing.T, data []byte, lock uint8, wo bool) {
		cpus, ok := fuzzTrace(data)
		if !ok {
			return
		}
		_, err := machine.Run(trace.BufferSet("fuzz", cpus), fuzzConfig(lock, wo))
		if err != nil && errors.Is(err, machine.ErrInvariant) {
			t.Fatalf("invariant violated on a valid trace: %v", err)
		}
	})
}
