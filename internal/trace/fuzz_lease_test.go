package trace_test

import (
	"reflect"
	"testing"

	"syncsim/internal/locks"
	"syncsim/internal/machine"
	"syncsim/internal/trace"
)

// FuzzLeaseSched is the differential fuzzer for the calendar and its
// lease discipline: every well-formed decoded trace must produce the
// polling loop's result, bit for bit, under the lease-free calendar —
// over sources wrapped in trace.Func, which cannot rewind, so no lease is
// taken — and under the default calendar, which leases, with the invariant
// checker enabled in all three. Failure must agree too: a run that fails
// under only some loops is a scheduler bug by definition.
func FuzzLeaseSched(f *testing.F) {
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
	add("speculative", [][]trace.Event{
		{trace.Exec(40), trace.Read(0x1000), trace.Read(0x1010), trace.Read(0x1020), trace.Write(0x1000), trace.End()},
		{trace.Read(0x1000), trace.Exec(5), trace.Write(0x1000), trace.Exec(30), trace.Read(0x1010), trace.End()},
	}, locks.TTSBackoff, machine.WeakOrdering)
	// Zero-length bursts right after a blocking event completes in the
	// same step: the last arrival at a barrier, and a test-and-set lock
	// taken on a line the processor already owns.
	add("zero burst", [][]trace.Event{
		{trace.Exec(3), trace.Barrier(0), trace.Exec(0), trace.Exec(5), trace.End()},
		{trace.Barrier(0), trace.End()},
	}, locks.TTSBackoff, machine.WeakOrdering)
	add("relock on owned line", [][]trace.Event{
		{trace.Lock(1, lk), trace.Unlock(1, lk), trace.Lock(1, lk), trace.Exec(0), trace.Exec(5), trace.Unlock(1, lk), trace.End()},
		{trace.Exec(40), trace.Read(0x1000), trace.Exec(0), trace.Exec(3), trace.End()},
	}, locks.TTS, machine.WeakOrdering)

	// Two processors read-share a line and a third misses on it: the
	// calendar answers that read snoop without visiting the two holders,
	// one of them leased. A fourth then writes the line under the leased
	// holder's later hits, which rolls that lease back after the skipped
	// snoop.
	add("shared read then rollback", sharedReadTrace(), locks.TTS, machine.SeqConsistent)

	f.Fuzz(func(t *testing.T, data []byte, lock uint8, wo bool) {
		cpus, ok := fuzzTrace(data)
		if !ok {
			return
		}
		cfg := fuzzConfig(lock, wo)

		leaseFree := trace.BufferSet("fuzz", cpus)
		for i, src := range leaseFree.Sources {
			leaseFree.Sources[i] = trace.Func(src.Next)
		}
		rcfg := cfg
		rcfg.Sched = machine.SchedPolling

		// The polling loop is the reference; every calendar variant must
		// reproduce it.
		ref, rerr := machine.Run(trace.BufferSet("fuzz", cpus), rcfg)
		for _, run := range []struct {
			name string
			set  *trace.Set
		}{
			{"lease-free calendar", leaseFree},
			{"leased calendar", trace.BufferSet("fuzz", cpus)},
		} {
			got, err := machine.Run(run.set, cfg)
			switch {
			case rerr != nil && err != nil:
				continue // both fail (resource limits, deadlock): agreement is enough
			case rerr != nil || err != nil:
				t.Fatalf("%s disagrees with polling on failure: polling err=%v, %s err=%v", run.name, rerr, run.name, err)
			}
			want, have := *ref, *got
			want.Config, have.Config = machine.Config{}, machine.Config{}
			want.Sched, have.Sched = machine.SchedStats{}, machine.SchedStats{}
			if !reflect.DeepEqual(want, have) {
				t.Fatalf("%s diverges from polling:\npolling: %+v\n%s: %+v", run.name, want, run.name, have)
			}
		}
	})
}
