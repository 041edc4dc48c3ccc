package machine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"syncsim/internal/locks"
	"syncsim/internal/trace"
)

func woCfg() Config {
	cfg := defCfg()
	cfg.Consistency = WeakOrdering
	return cfg
}

func TestWOWriteMissDoesNotStall(t *testing.T) {
	res := run(t, woCfg(), "wowrite", []trace.Event{
		trace.Write(0x1000), trace.Exec(20),
	})
	if res.CPUs[0].StallMiss != 0 {
		t.Errorf("StallMiss = %d, want 0 (buffered write)", res.CPUs[0].StallMiss)
	}
	// The run still has to wait for the buffered write to finish before
	// retiring, but execution overlapped it.
	if res.RunTime > 21 {
		t.Errorf("RunTime = %d, want ≤21 (write overlapped with exec)", res.RunTime)
	}
}

func TestWOReadBypassesBufferedWrites(t *testing.T) {
	// Three buffered write misses, then a read miss: under WO the read
	// goes to the front of the buffer and completes first.
	res := run(t, woCfg(), "wobypass", []trace.Event{
		trace.Write(0x1000), trace.Write(0x2000), trace.Write(0x3000),
		trace.Read(0x4000),
		trace.Exec(10),
	})
	// The read must not wait for all three writes (3 × 6 = 18 serial
	// cycles); with bypass it stalls roughly one miss time.
	if res.CPUs[0].StallMiss > 8 {
		t.Errorf("read stalled %d cycles; bypass broken", res.CPUs[0].StallMiss)
	}
	sc := run(t, defCfg(), "scbypass", []trace.Event{
		trace.Write(0x1000), trace.Write(0x2000), trace.Write(0x3000),
		trace.Read(0x4000),
		trace.Exec(10),
	})
	if sc.CPUs[0].StallMiss <= res.CPUs[0].StallMiss {
		t.Errorf("SC stall %d not worse than WO stall %d",
			sc.CPUs[0].StallMiss, res.CPUs[0].StallMiss)
	}
}

func TestWONeverSlowerThanSCSingleCPU(t *testing.T) {
	evs := []trace.Event{
		trace.Exec(5), trace.Write(0x1000), trace.Exec(5), trace.Write(0x2000),
		trace.Exec(5), trace.Read(0x3000), trace.Exec(5), trace.Write(0x4000),
		trace.Exec(5),
	}
	sc := run(t, defCfg(), "sc", evs)
	evs2 := []trace.Event{
		trace.Exec(5), trace.Write(0x1000), trace.Exec(5), trace.Write(0x2000),
		trace.Exec(5), trace.Read(0x3000), trace.Exec(5), trace.Write(0x4000),
		trace.Exec(5),
	}
	wo := run(t, woCfg(), "wo", evs2)
	if wo.RunTime > sc.RunTime {
		t.Errorf("WO run-time %d > SC %d", wo.RunTime, sc.RunTime)
	}
}

func TestWODrainsAtLock(t *testing.T) {
	// A buffered write must complete before the lock access is issued.
	res := run(t, woCfg(), "wodrain", []trace.Event{
		trace.Write(0x1000),
		trace.Lock(0, 0x9000), trace.Exec(5), trace.Unlock(0, 0x9000),
		trace.Exec(1),
	})
	if res.CPUs[0].StallDrain == 0 {
		t.Error("no drain stall recorded before lock with buffered write")
	}
	if res.Locks.Acquisitions != 1 {
		t.Errorf("Acquisitions = %d", res.Locks.Acquisitions)
	}
}

func TestWOMergeReadAfterBufferedWrite(t *testing.T) {
	// A read of a line with an outstanding buffered write-miss must wait
	// for that fill (not issue a second one), then hit.
	res := run(t, woCfg(), "womerge", []trace.Event{
		trace.Write(0x1000),
		trace.Read(0x1004),
		trace.Exec(5),
	})
	c := res.CPUs[0].Cache
	if c.WriteMisses != 1 {
		t.Errorf("WriteMisses = %d, want 1", c.WriteMisses)
	}
	// The merged read replays after the fill and hits.
	if c.ReadMisses != 0 || c.ReadHits != 1 {
		t.Errorf("read stats = %+v, want merged replay hit", c)
	}
	if res.Memory.Reads != 1 {
		t.Errorf("memory reads = %d, want 1 (no duplicate fill)", res.Memory.Reads)
	}
}

func TestWOBufferFullStalls(t *testing.T) {
	// More buffered writes than buffer entries: the processor must
	// eventually stall, but the run completes.
	cfg := woCfg()
	cfg.BufDepth = 2
	var evs []trace.Event
	for i := 0; i < 10; i++ {
		evs = append(evs, trace.Write(uint32(0x1000+i*0x100)))
	}
	evs = append(evs, trace.Exec(1))
	res := run(t, cfg, "wofull", evs)
	if res.CPUs[0].StallMiss == 0 {
		t.Error("no structural stall despite tiny buffer")
	}
	if res.Memory.Reads != 10 {
		t.Errorf("memory reads = %d, want 10", res.Memory.Reads)
	}
}

func TestIdenticalLockBehaviourAcrossModels(t *testing.T) {
	// §4.2 / Table 8: locking patterns barely change under WO.
	cs := func() []trace.Event {
		var evs []trace.Event
		for i := 0; i < 10; i++ {
			evs = append(evs, trace.Lock(0, 0x9000), trace.Exec(30),
				trace.Unlock(0, 0x9000), trace.Exec(10))
		}
		return evs
	}
	sc := run(t, defCfg(), "sc", cs(), cs(), cs())
	wo := run(t, woCfg(), "wo", cs(), cs(), cs())
	if sc.Locks.Acquisitions != wo.Locks.Acquisitions {
		t.Errorf("acquisitions differ: %d vs %d", sc.Locks.Acquisitions, wo.Locks.Acquisitions)
	}
	if sc.Locks.Transfers != wo.Locks.Transfers {
		t.Errorf("transfers differ: %d vs %d", sc.Locks.Transfers, wo.Locks.Transfers)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *trace.Set {
		rng := rand.New(rand.NewSource(7))
		cpus := make([][]trace.Event, 4)
		for i := range cpus {
			cpus[i] = randomWorkload(rng, 200, 4)
		}
		return trace.BufferSet("det", cpus)
	}
	r1, err := Run(mk(), defCfg())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(mk(), defCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r1.RunTime != r2.RunTime {
		t.Errorf("run-times differ: %d vs %d", r1.RunTime, r2.RunTime)
	}
	if r1.Locks.Transfers != r2.Locks.Transfers {
		t.Errorf("transfers differ: %d vs %d", r1.Locks.Transfers, r2.Locks.Transfers)
	}
	if r1.Bus.BusyCycles != r2.Bus.BusyCycles {
		t.Errorf("bus cycles differ: %d vs %d", r1.Bus.BusyCycles, r2.Bus.BusyCycles)
	}
}

// randomWorkload builds a well-formed random trace: exec bursts, reads and
// writes over a small shared region, and properly paired locks.
func randomWorkload(rng *rand.Rand, n, nlocks int) []trace.Event {
	var evs []trace.Event
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2:
			evs = append(evs, trace.Exec(uint32(rng.Intn(20)+1)))
		case 3, 4, 5:
			evs = append(evs, trace.Read(uint32(rng.Intn(64)*16)))
		case 6, 7:
			evs = append(evs, trace.Write(uint32(rng.Intn(64)*16)))
		default:
			id := uint32(rng.Intn(nlocks))
			evs = append(evs,
				trace.Lock(id, 0x9000+id*64),
				trace.Exec(uint32(rng.Intn(30)+1)),
				trace.Read(uint32(rng.Intn(16)*16+0x8000)),
				trace.Unlock(id, 0x9000+id*64),
			)
		}
	}
	evs = append(evs, trace.Exec(1))
	return evs
}

// TestRandomTracesComplete is the machine's liveness property: any
// well-formed trace set completes without deadlock under every
// (lock, consistency) combination, with the invariant checker on, so the
// caches stay coherent and no lock is left held.
func TestRandomTracesComplete(t *testing.T) {
	configs := []Config{}
	for _, lk := range []locks.Algorithm{locks.Queue, locks.TTS} {
		for _, cm := range []Consistency{SeqConsistent, WeakOrdering} {
			cfg := defCfg()
			cfg.Lock = lk
			cfg.Consistency = cm
			cfg.MaxCycles = 2_000_000
			cfg.Check = true
			configs = append(configs, cfg)
		}
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ncpu := rng.Intn(5) + 2
		cpus := make([][]trace.Event, ncpu)
		for i := range cpus {
			cpus[i] = randomWorkload(rng, 100, 3)
		}
		if err := trace.Validate(cpus); err != nil {
			return true // skip malformed generations (should not happen)
		}
		for _, cfg := range configs {
			// Buffers are consumed; rebuild per config.
			copied := make([][]trace.Event, ncpu)
			for i := range cpus {
				copied[i] = append([]trace.Event(nil), cpus[i]...)
			}
			res, err := Run(trace.BufferSet("rnd", copied), cfg)
			if err != nil {
				t.Logf("seed %d cfg %v/%v: %v", seed, cfg.Lock, cfg.Consistency, err)
				return false
			}
			// Work cycles are trace-determined, identical across configs.
			var want uint64
			for _, evs := range cpus {
				for _, ev := range evs {
					if ev.Kind == trace.KindExec {
						want += uint64(ev.Arg)
					}
				}
			}
			var got uint64
			for i := range res.CPUs {
				got += res.CPUs[i].WorkCycles
			}
			if got != want {
				t.Logf("seed %d: work cycles %d, want %d", seed, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStallBreakdownAndRatios(t *testing.T) {
	cs := []trace.Event{
		trace.Read(0x100000), // miss
		trace.Lock(0, 0x9000), trace.Exec(40), trace.Unlock(0, 0x9000),
		trace.Exec(10),
	}
	res := run(t, defCfg(), "mix", cs, cs)
	cachePct, lockPct, otherPct := res.StallBreakdown()
	if cachePct <= 0 || lockPct <= 0 {
		t.Errorf("breakdown = %.1f/%.1f/%.1f, want positive cache and lock", cachePct, lockPct, otherPct)
	}
	total := cachePct + lockPct + otherPct
	if total < 99.9 || total > 100.1 {
		t.Errorf("breakdown sums to %.2f", total)
	}
	if r := res.WriteHitRatio(); r != 1 {
		t.Errorf("WriteHitRatio = %v, want 1 (no writes)", r)
	}
	if r := res.ReadHitRatio(); r != 0 {
		t.Errorf("ReadHitRatio = %v, want 0 (single read missed)", r)
	}
}

func TestResultHelpersEmpty(t *testing.T) {
	var r Result
	if r.AvgUtilization() != 0 {
		t.Error("AvgUtilization of empty result should be 0")
	}
	a, b, c := r.StallBreakdown()
	if a != 0 || b != 0 || c != 0 {
		t.Error("StallBreakdown of empty result should be zeros")
	}
	if r.WriteHitRatio() != 1 || r.ReadHitRatio() != 1 {
		t.Error("hit ratios of empty result should be 1")
	}
}
