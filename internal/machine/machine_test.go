package machine

import (
	"strings"
	"testing"

	"syncsim/internal/bus"
	"syncsim/internal/locks"
	"syncsim/internal/trace"
)

// run simulates a trace set with the given config, invariant checker on,
// and fails the test on error: a coherence violation, a lock still held at
// the end, or any other broken invariant.
func run(t *testing.T, cfg Config, name string, cpus ...[]trace.Event) *Result {
	t.Helper()
	cfg.Check = true
	res, err := Run(trace.BufferSet(name, cpus), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func defCfg() Config {
	cfg := DefaultConfig()
	cfg.MaxCycles = 10_000_000
	return cfg
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	bad := DefaultConfig()
	bad.BufDepth = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero buffer depth")
	}
	bad = DefaultConfig()
	bad.Lock = locks.Algorithm(9)
	if err := bad.Validate(); err == nil {
		t.Error("accepted unknown lock algorithm")
	}
	bad = DefaultConfig()
	bad.Consistency = Consistency(9)
	if err := bad.Validate(); err == nil {
		t.Error("accepted unknown consistency model")
	}
	bad = DefaultConfig()
	bad.BusTiming.Request = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero bus request time")
	}
	if SeqConsistent.String() != "sc" || WeakOrdering.String() != "wo" || Consistency(7).String() == "" {
		t.Error("consistency names wrong")
	}
}

func TestParseConsistency(t *testing.T) {
	for _, c := range []Consistency{SeqConsistent, WeakOrdering} {
		if got, err := ParseConsistency(c.String()); err != nil || got != c {
			t.Errorf("ParseConsistency(%q) = %v, %v; want %v", c, got, err, c)
		}
	}
	for _, name := range []string{"bogus", "WO", "Consistency(2)", ""} {
		if _, err := ParseConsistency(name); err == nil {
			t.Errorf("ParseConsistency(%q) accepted an unknown name", name)
		}
	}
}

func TestNewRejectsEmptySet(t *testing.T) {
	if _, err := New(trace.BufferSet("e", nil), DefaultConfig()); err == nil {
		t.Fatal("accepted empty trace set")
	}
	badCfg := DefaultConfig()
	badCfg.BufDepth = -1
	if _, err := New(trace.BufferSet("e", [][]trace.Event{{}}), badCfg); err == nil {
		t.Fatal("accepted invalid config")
	}
}

func TestPureExecution(t *testing.T) {
	res := run(t, defCfg(), "exec", []trace.Event{trace.Exec(100)})
	if res.RunTime != 100 {
		t.Errorf("RunTime = %d, want 100", res.RunTime)
	}
	if res.CPUs[0].WorkCycles != 100 {
		t.Errorf("WorkCycles = %d", res.CPUs[0].WorkCycles)
	}
	if u := res.AvgUtilization(); u != 1 {
		t.Errorf("Utilization = %v, want 1", u)
	}
}

func TestEmptyTraceFinishesImmediately(t *testing.T) {
	res := run(t, defCfg(), "empty", []trace.Event{})
	if res.RunTime != 0 {
		t.Errorf("RunTime = %d, want 0", res.RunTime)
	}
}

func TestUncontendedReadMissCostsSixCycles(t *testing.T) {
	// §2.2: request (1) + memory access (3) + line transfer (2) = 6.
	res := run(t, defCfg(), "miss", []trace.Event{trace.Read(0x1000), trace.Exec(10)})
	if res.RunTime != 16 {
		t.Errorf("RunTime = %d, want 16 (6-cycle miss + 10 exec)", res.RunTime)
	}
	if res.CPUs[0].StallMiss != 6 {
		t.Errorf("StallMiss = %d, want 6", res.CPUs[0].StallMiss)
	}
	if res.CPUs[0].Cache.ReadMisses != 1 {
		t.Errorf("ReadMisses = %d, want 1", res.CPUs[0].Cache.ReadMisses)
	}
}

func TestWriteMissCostsSixCyclesUnderSC(t *testing.T) {
	res := run(t, defCfg(), "wmiss", []trace.Event{trace.Write(0x1000), trace.Exec(10)})
	if res.RunTime != 16 {
		t.Errorf("RunTime = %d, want 16", res.RunTime)
	}
	if res.CPUs[0].StallMiss != 6 {
		t.Errorf("StallMiss = %d, want 6", res.CPUs[0].StallMiss)
	}
}

func TestHitIsFree(t *testing.T) {
	res := run(t, defCfg(), "hit", []trace.Event{
		trace.Read(0x1000), // miss, 6 cycles
		trace.Read(0x1004), // same line: hit, free
		trace.Read(0x1008),
		trace.Write(0x100c), // write hit on E: silent
		trace.Exec(4),
	})
	if res.RunTime != 10 {
		t.Errorf("RunTime = %d, want 10 (one miss only)", res.RunTime)
	}
	c := res.CPUs[0].Cache
	if c.ReadHits != 2 || c.WriteHits != 1 || c.ReadMisses != 1 {
		t.Errorf("cache stats = %+v", c)
	}
}

func TestCacheToCacheTransfer(t *testing.T) {
	// cpu1 fetches the line first (memory, E); cpu0 reads it at cycle 20:
	// Illinois supplies cache-to-cache in 3 cycles (request + line).
	res := run(t, defCfg(), "c2c",
		[]trace.Event{trace.Exec(20), trace.Read(0x1000), trace.Exec(1)},
		[]trace.Event{trace.Read(0x1000), trace.Exec(1)},
	)
	if res.CPUs[0].StallMiss != 3 {
		t.Errorf("cpu0 StallMiss = %d, want 3 (c2c)", res.CPUs[0].StallMiss)
	}
	if res.CPUs[1].StallMiss != 6 {
		t.Errorf("cpu1 StallMiss = %d, want 6 (memory)", res.CPUs[1].StallMiss)
	}
	if res.Bus.Count(bus.OpCacheToCache) != 1 {
		t.Errorf("c2c transactions = %d, want 1", res.Bus.Count(bus.OpCacheToCache))
	}
}

func TestUpgradeInvalidation(t *testing.T) {
	// Both CPUs read the line (Shared everywhere), then cpu0 writes it:
	// upgrade = 1-cycle invalidation.
	res := run(t, defCfg(), "upg",
		[]trace.Event{trace.Read(0x1000), trace.Exec(30), trace.Write(0x1000), trace.Exec(1)},
		[]trace.Event{trace.Exec(10), trace.Read(0x1000), trace.Exec(1)},
	)
	c0 := res.CPUs[0].Cache
	if c0.Upgrades != 1 {
		t.Errorf("cpu0 Upgrades = %d, want 1", c0.Upgrades)
	}
	if res.CPUs[1].Cache.Invalidated != 1 {
		t.Errorf("cpu1 Invalidated = %d, want 1", res.CPUs[1].Cache.Invalidated)
	}
	// The upgrade stall is exactly 1 cycle (bus was free).
	if res.CPUs[0].StallMiss != 6+1 {
		t.Errorf("cpu0 StallMiss = %d, want 7 (6 miss + 1 upgrade)", res.CPUs[0].StallMiss)
	}
}

func TestDirtySupplyOnRemoteRead(t *testing.T) {
	// cpu0 writes a line (M); cpu1 then reads it: cpu0 must supply and
	// drop to Shared.
	res := run(t, defCfg(), "dirty",
		[]trace.Event{trace.Write(0x2000), trace.Exec(50)},
		[]trace.Event{trace.Exec(20), trace.Read(0x2000), trace.Exec(1)},
	)
	if res.CPUs[1].StallMiss != 3 {
		t.Errorf("cpu1 StallMiss = %d, want 3 (supplied from M copy)", res.CPUs[1].StallMiss)
	}
	if res.CPUs[0].Cache.SnoopHits != 1 {
		t.Errorf("cpu0 SnoopHits = %d, want 1", res.CPUs[0].Cache.SnoopHits)
	}
}

func TestQueueLockUncontended(t *testing.T) {
	// Acquire = one memory round trip (6 cycles); release = one bus
	// request (1 cycle). CS is 10 cycles of work.
	res := run(t, defCfg(), "qlock", []trace.Event{
		trace.Lock(0, 0x9000), trace.Exec(10), trace.Unlock(0, 0x9000), trace.Exec(1),
	})
	if res.Locks.Acquisitions != 1 || res.Locks.Transfers != 0 {
		t.Errorf("lock stats = %+v", res.Locks)
	}
	// Hold = CS work + release transaction latency.
	if got := res.Locks.AvgHold(); got < 10 || got > 14 {
		t.Errorf("AvgHold = %v, want ≈11", got)
	}
	if res.CPUs[0].StallLock < 7 || res.CPUs[0].StallLock > 10 {
		t.Errorf("StallLock = %d, want ≈8 (6 acquire + ~2 release)", res.CPUs[0].StallLock)
	}
	if res.CPUs[0].StallMiss != 0 {
		t.Errorf("StallMiss = %d, want 0", res.CPUs[0].StallMiss)
	}
}

func TestQueueLockContention(t *testing.T) {
	// Two processors fight over one lock; FIFO hand-off.
	cs := []trace.Event{trace.Lock(0, 0x9000), trace.Exec(50), trace.Unlock(0, 0x9000), trace.Exec(1)}
	res := run(t, defCfg(), "qcontend", cs, cs)
	if res.Locks.Acquisitions != 2 {
		t.Fatalf("Acquisitions = %d, want 2", res.Locks.Acquisitions)
	}
	if res.Locks.Transfers != 1 {
		t.Fatalf("Transfers = %d, want 1", res.Locks.Transfers)
	}
	if res.Locks.WaitersAtTransfer != 0 {
		t.Errorf("WaitersAtTransfer = %d, want 0 (only one waiter, none left)", res.Locks.WaitersAtTransfer)
	}
	// Queuing hand-off latency is ~2 cycles (the piggybacked transfer).
	if got := res.Locks.AvgTransferTime(); got < 1 || got > 4 {
		t.Errorf("AvgTransferTime = %v, want ≈2", got)
	}
	// The loser waits roughly the winner's CS plus protocol overhead.
	loser := res.CPUs[0].StallLock
	if res.CPUs[1].StallLock > loser {
		loser = res.CPUs[1].StallLock
	}
	if loser < 50 || loser > 80 {
		t.Errorf("loser StallLock = %d, want ≈60", loser)
	}
}

func TestQueueLockFIFOOrder(t *testing.T) {
	// Three CPUs contend; queuing locks must hand off in arrival order.
	// Arrival order is forced by staggered starts.
	mk := func(delay uint32) []trace.Event {
		return []trace.Event{
			trace.Exec(delay),
			trace.Lock(0, 0x9000), trace.Exec(100), trace.Unlock(0, 0x9000),
			trace.Exec(1),
		}
	}
	res := run(t, defCfg(), "fifo", mk(1), mk(20), mk(40))
	// cpu0 acquires first and holds 100 cycles; cpu1 and cpu2 queue in
	// order. Finish order must be 0, 1, 2.
	if !(res.CPUs[0].FinishTime < res.CPUs[1].FinishTime &&
		res.CPUs[1].FinishTime < res.CPUs[2].FinishTime) {
		t.Errorf("finish times %d, %d, %d not FIFO",
			res.CPUs[0].FinishTime, res.CPUs[1].FinishTime, res.CPUs[2].FinishTime)
	}
	if res.Locks.Transfers != 2 {
		t.Errorf("Transfers = %d, want 2", res.Locks.Transfers)
	}
	// At the first transfer one processor still waits; at the second, none.
	if res.Locks.WaitersAtTransfer != 1 {
		t.Errorf("ΣWaitersAtTransfer = %d, want 1", res.Locks.WaitersAtTransfer)
	}
}

func TestTTSUncontended(t *testing.T) {
	cfg := defCfg()
	cfg.Lock = locks.TTS
	res := run(t, cfg, "tts", []trace.Event{
		trace.Lock(0, 0x9000), trace.Exec(10), trace.Unlock(0, 0x9000), trace.Exec(1),
	})
	if res.Locks.Acquisitions != 1 || res.Locks.Transfers != 0 {
		t.Errorf("lock stats = %+v", res.Locks)
	}
	// Test read misses (6 cycles), T&S hits the E line silently, release
	// hits the M line silently: ~6 cycles of lock stall total.
	if res.CPUs[0].StallLock < 6 || res.CPUs[0].StallLock > 8 {
		t.Errorf("StallLock = %d, want ≈6", res.CPUs[0].StallLock)
	}
}

func TestTTSContentionTransfersAndFlurry(t *testing.T) {
	cfg := defCfg()
	cfg.Lock = locks.TTS
	cs := []trace.Event{trace.Lock(0, 0x9000), trace.Exec(60), trace.Unlock(0, 0x9000), trace.Exec(1)}
	res := run(t, cfg, "ttsc", cs, cs, cs)
	if res.Locks.Acquisitions != 3 {
		t.Fatalf("Acquisitions = %d, want 3", res.Locks.Acquisitions)
	}
	if res.Locks.Transfers != 2 {
		t.Fatalf("Transfers = %d, want 2", res.Locks.Transfers)
	}
	// T&T&S transfers are much slower than queuing hand-offs: the
	// spinners must re-read and race with test&sets through the bus.
	if got := res.Locks.AvgTransferTime(); got < 5 {
		t.Errorf("AvgTransferTime = %v, want ≥5 (re-read + race)", got)
	}
}

func TestTTSSlowerThanQueueUnderContention(t *testing.T) {
	cs := func() []trace.Event {
		var evs []trace.Event
		for i := 0; i < 30; i++ {
			evs = append(evs, trace.Lock(0, 0x9000), trace.Exec(20), trace.Unlock(0, 0x9000), trace.Exec(5))
		}
		return evs
	}
	cfgQ := defCfg()
	resQ := run(t, cfgQ, "q", cs(), cs(), cs(), cs())
	cfgT := defCfg()
	cfgT.Lock = locks.TTS
	resT := run(t, cfgT, "t", cs(), cs(), cs(), cs())
	if resT.RunTime <= resQ.RunTime {
		t.Errorf("TTS run-time %d not slower than queuing %d under contention",
			resT.RunTime, resQ.RunTime)
	}
	if resT.Locks.AvgTransferTime() <= resQ.Locks.AvgTransferTime() {
		t.Errorf("TTS transfer time %.1f not slower than queuing %.1f",
			resT.Locks.AvgTransferTime(), resQ.Locks.AvgTransferTime())
	}
	// The paper's §3.2: the flurry raises bus utilisation.
	if resT.Bus.BusyCycles <= resQ.Bus.BusyCycles {
		t.Errorf("TTS bus cycles %d not higher than queuing %d",
			resT.Bus.BusyCycles, resQ.Bus.BusyCycles)
	}
}

func TestBarrier(t *testing.T) {
	res := run(t, defCfg(), "barrier",
		[]trace.Event{trace.Exec(10), trace.Barrier(0), trace.Exec(5)},
		[]trace.Event{trace.Exec(100), trace.Barrier(0), trace.Exec(5)},
	)
	if res.BarrierEpisodes != 1 {
		t.Errorf("BarrierEpisodes = %d, want 1", res.BarrierEpisodes)
	}
	// cpu0 waits ~90 cycles for cpu1.
	if res.CPUs[0].StallBarrier < 85 || res.CPUs[0].StallBarrier > 95 {
		t.Errorf("cpu0 StallBarrier = %d, want ≈90", res.CPUs[0].StallBarrier)
	}
	if res.CPUs[1].StallBarrier != 0 {
		t.Errorf("cpu1 StallBarrier = %d, want 0 (last to arrive)", res.CPUs[1].StallBarrier)
	}
	// Both finish at roughly the same time.
	d := int64(res.CPUs[0].FinishTime) - int64(res.CPUs[1].FinishTime)
	if d < -2 || d > 2 {
		t.Errorf("finish skew %d, want ≈0", d)
	}
}

func TestRepeatedBarrierEpisodes(t *testing.T) {
	mk := func(work uint32) []trace.Event {
		var evs []trace.Event
		for i := 0; i < 5; i++ {
			evs = append(evs, trace.Exec(work), trace.Barrier(0))
		}
		return evs
	}
	res := run(t, defCfg(), "barriers", mk(10), mk(30), mk(20))
	if res.BarrierEpisodes != 5 {
		t.Errorf("BarrierEpisodes = %d, want 5", res.BarrierEpisodes)
	}
}

func TestDeadlockDetected(t *testing.T) {
	// cpu0 never releases; cpu1 waits forever.
	set := trace.BufferSet("dead", [][]trace.Event{
		{trace.Lock(0, 0x9000), trace.Exec(10)},
		{trace.Exec(5), trace.Lock(0, 0x9000), trace.Exec(10)},
	})
	m, err := New(set, defCfg())
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if err == nil {
		t.Fatal("deadlocked run returned no error")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("error %q does not mention deadlock", err)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	var evs []trace.Event
	for i := 0; i < 100; i++ {
		evs = append(evs, trace.Exec(1000))
	}
	cfg := defCfg()
	cfg.MaxCycles = 500
	set := trace.BufferSet("long", [][]trace.Event{evs})
	m, _ := New(set, cfg)
	if _, err := m.Run(); err == nil {
		t.Fatal("MaxCycles exceeded without error")
	}
}

// TestMaxCyclesExactTripCycle pins the guard's boundary semantics under
// both schedulers: the bound is inclusive — cycles 0..MaxCycles-1 may
// execute — and a machine still incomplete at cycle MaxCycles aborts at
// EXACTLY that cycle, even when the event calendar would have jumped past
// it. Regression test for the off-by-one where runs needing exactly
// MaxCycles cycles were mis-flagged a cycle late (or allowed through).
func TestMaxCyclesExactTripCycle(t *testing.T) {
	for _, sched := range []SchedKind{SchedCalendar, SchedPolling} {
		t.Run(sched.String(), func(t *testing.T) {
			mk := func(maxCycles uint64) *Machine {
				cfg := defCfg()
				cfg.Sched = sched
				cfg.MaxCycles = maxCycles
				set := trace.BufferSet("exact", [][]trace.Event{{trace.Exec(10)}})
				m, err := New(set, cfg)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				return m
			}
			// Exec(10) retires at cycle 10, so the run needs cycles 0..10.
			res, err := mk(11).Run()
			if err != nil {
				t.Fatalf("MaxCycles=11 must allow a 10-cycle run: %v", err)
			}
			if res.RunTime != 10 {
				t.Fatalf("RunTime = %d, want 10", res.RunTime)
			}
			// With MaxCycles=10 the completing cycle itself is out of
			// bounds: the abort must name cycle 10, not 9 or 11.
			if _, err := mk(10).Run(); err == nil {
				t.Fatal("MaxCycles=10 must abort a run needing cycle 10")
			} else if !strings.Contains(err.Error(), "MaxCycles=10 at cycle 10") {
				t.Fatalf("abort cycle not pinned to the bound: %v", err)
			}
			// A bound inside an event gap still trips at the bound: the
			// clock is clamped, never stepped past it.
			if _, err := mk(5).Run(); err == nil {
				t.Fatal("MaxCycles=5 must abort")
			} else if !strings.Contains(err.Error(), "MaxCycles=5 at cycle 5") {
				t.Fatalf("clamped abort cycle wrong: %v", err)
			}
		})
	}
}
