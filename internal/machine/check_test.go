package machine

import (
	"errors"
	"testing"

	"syncsim/internal/cache"
	"syncsim/internal/locks"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
	"syncsim/internal/workload/suite"
)

// TestCheckerCleanWorkloads runs real benchmark traces with the invariant
// checker enabled across the lock algorithms and consistency models; a
// correct machine must never trip it.
func TestCheckerCleanWorkloads(t *testing.T) {
	cases := []struct {
		bench string
		lock  locks.Algorithm
		cons  Consistency
	}{
		{"Grav", locks.Queue, SeqConsistent},
		{"Grav", locks.TTS, SeqConsistent},
		{"Pdsa", locks.Queue, WeakOrdering},
		{"Pdsa", locks.QueueExact, SeqConsistent},
		{"Qsort", locks.TTSBackoff, SeqConsistent},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.bench+"/"+tc.lock.String()+"/"+tc.cons.String(), func(t *testing.T) {
			t.Parallel()
			b, err := suite.ByName(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			set, err := b.Program.Generate(workload.Params{Scale: 0.02, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			cfg := defCfg()
			cfg.Check = true
			cfg.Lock = tc.lock
			cfg.Consistency = tc.cons
			if _, err := Run(set, cfg); err != nil {
				t.Fatalf("checked run failed: %v", err)
			}
		})
	}
}

// sharedReaderWriterTrace builds a two-CPU trace where both processors read
// one shared line and cpu 0 then writes it — the minimal sequence whose
// upgrade invalidation the FaultSkipInvalidate bug corrupts.
func sharedReaderWriterTrace() *trace.Set {
	const x = 0x2000_1000
	return trace.BufferSet("shared-rw", [][]trace.Event{
		{trace.Read(x), trace.Exec(20), trace.Write(x), trace.Exec(20)},
		{trace.Read(x), trace.Exec(60)},
	})
}

func TestCheckerCatchesInjectedCoherenceBug(t *testing.T) {
	cfg := defCfg()
	cfg.Check = true

	// Control: the same trace on the unfaulted machine is clean.
	if _, err := Run(sharedReaderWriterTrace(), cfg); err != nil {
		t.Fatalf("clean machine tripped the checker: %v", err)
	}

	cfg.Fault = FaultSkipInvalidate
	_, err := Run(sharedReaderWriterTrace(), cfg)
	if err == nil {
		t.Fatal("checker missed the injected coherence bug")
	}
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("fault surfaced as %v, want ErrInvariant", err)
	}
}

// TestFaultInvisibleWithoutChecker pins the fault's stealth: without the
// checker the corrupted run completes and silently reports wrong numbers,
// which is exactly why Config.Check exists.
func TestFaultInvisibleWithoutChecker(t *testing.T) {
	cfg := defCfg()
	cfg.Fault = FaultSkipInvalidate
	if _, err := Run(sharedReaderWriterTrace(), cfg); err != nil {
		t.Fatalf("unchecked faulty run errored: %v", err)
	}
}

func TestCheckerCatchesLeakedLock(t *testing.T) {
	leaky := [][]trace.Event{
		{trace.Lock(1, 0x2000_0040), trace.Exec(5)}, // never unlocked
	}
	cfg := defCfg()
	if _, err := Run(trace.BufferSet("leaky", leaky), cfg); err != nil {
		t.Fatalf("unchecked leaky run errored: %v", err)
	}
	cfg.Check = true
	_, err := Run(trace.BufferSet("leaky", leaky), cfg)
	if err == nil || !errors.Is(err, ErrInvariant) {
		t.Fatalf("leaked lock not caught: %v", err)
	}
}

func TestValidateRejectsUnknownFault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = Fault(99)
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted an unknown fault")
	}
}

// sharedReadRollbackTrace has two processors read-share a line, a third
// miss on it while they hold it, and a fourth write it later. Cpu 0 runs
// ahead through hits on the line under a lease, so the third processor's
// read snoop finds a leased holder, and the fourth processor's write takes
// the line away from under cpu 0's later hits, which rolls its lease back
// after the read snoop.
func sharedReadRollbackTrace() [][]trace.Event {
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

// TestSharedReadSnoop checks the calendar's shared-read shortcut against
// the polling loop's per-holder walk on sharedReadRollbackTrace, under
// every loop, lock family and consistency model, checker on; and that the
// run took the shortcut, rolled a lease back, and counted each skipped
// holder's snoop hit and supply.
func TestSharedReadSnoop(t *testing.T) {
	cpus := sharedReadRollbackTrace()
	requireLoopsAgree(t, cpus)

	cfg := defCfg()
	cfg.Check = true
	m, err := New(trace.BufferSet("shared-read", cpus), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sched.Rollbacks == 0 {
		t.Error("no lease rolled back")
	}
	skipped := uint64(0)
	for id, n := range m.sharedSnoops {
		skipped += n
		if st := res.CPUs[id].Cache; st.SnoopHits < n || st.SnoopSupply < n {
			t.Errorf("cpu %d: %d skipped snoops, but %d snoop hits and %d supplies", id, n, st.SnoopHits, st.SnoopSupply)
		}
	}
	if skipped == 0 {
		t.Error("no read snoop took the shared-line shortcut")
	}
}

// TestCheckerGuardsSharedRead breaks the Illinois invariant the shared-read
// shortcut rests on — a line Exclusive in one cache and Shared in another —
// and requires the checker to record the violation when the shortcut skips
// the exclusive holder, and the next completed transaction to end the run
// with it.
func TestCheckerGuardsSharedRead(t *testing.T) {
	const x = 0x1000
	cfg := defCfg()
	cfg.Check = true
	m, err := New(trace.BufferSet("guard", [][]trace.Event{{}, {}, {}}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.cpus[0].cache.Fill(x, cache.Shared)
	m.cpus[1].cache.Fill(x, cache.Shared)
	if !m.applySnoops(2, x, cache.SnoopRead) || m.checker.err != nil {
		t.Fatalf("shared line: supplied must be true and the checker quiet, got %v", m.checker.err)
	}
	if m.sharedSnoops[0] != 1 || m.sharedSnoops[1] != 1 || m.sharedSnoops[2] != 0 {
		t.Fatalf("skipped snoops per cpu = %v, want [1 1 0]", m.sharedSnoops)
	}

	m.cpus[0].cache.Fill(x+0x10, cache.Exclusive)
	m.cpus[1].cache.Fill(x+0x10, cache.Shared)
	m.applySnoops(2, x+0x10, cache.SnoopRead)
	if !errors.Is(m.checker.err, ErrInvariant) {
		t.Fatalf("exclusive holder skipped: checker recorded %v, want ErrInvariant", m.checker.err)
	}
	if err := m.checker.afterTxn(busTxn{line: x}); err != m.checker.err {
		t.Fatalf("afterTxn returned %v, want the recorded violation", err)
	}
}
