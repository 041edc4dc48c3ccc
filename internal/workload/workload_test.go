package workload

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"syncsim/internal/trace"
	"syncsim/internal/workload/addr"
)

func TestParamsDefaults(t *testing.T) {
	p := Params{}.WithDefaults(12)
	if p.NCPU != 12 || p.Scale != 1 {
		t.Fatalf("defaults = %+v", p)
	}
	p = Params{NCPU: 4, Scale: 0.5}.WithDefaults(12)
	if p.NCPU != 4 || p.Scale != 0.5 {
		t.Fatalf("explicit params overridden: %+v", p)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{NCPU: 1, Scale: 1}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if err := (Params{NCPU: 0}).Validate(); err == nil {
		t.Error("zero NCPU accepted")
	}
	if err := (Params{NCPU: 2, Scale: -1}).Validate(); err == nil {
		t.Error("negative scale accepted")
	}
}

func TestGenInstrEmitsIFetchWithCycles(t *testing.T) {
	g := NewGen(0, 7)
	g.Instr(10)
	if g.Events() != 10 {
		t.Fatalf("Events = %d, want 10", g.Events())
	}
	if g.VT == 0 {
		t.Fatal("VT did not advance")
	}
	coord := &Coordinator{Gens: []*Gen{g}}
	set, err := coord.Set("t")
	if err != nil {
		t.Fatal(err)
	}
	var cycles uint64
	for {
		ev, ok := set.Sources[0].Next()
		if !ok {
			break
		}
		if ev.Kind != trace.KindIFetch {
			t.Fatalf("unexpected event %v", ev)
		}
		if ev.Arg < 2 || ev.Arg > 3 {
			t.Fatalf("instruction cycles %d outside default CPI range", ev.Arg)
		}
		if !addr.IsCode(ev.Addr) {
			t.Fatalf("ifetch outside code region: %#x", ev.Addr)
		}
		cycles += uint64(ev.Arg)
	}
	if cycles != g.VT {
		t.Fatalf("VT %d != summed cycles %d", g.VT, cycles)
	}
}

func TestGenLoadStore(t *testing.T) {
	g := NewGen(1, 7)
	g.Load(0x1234)
	g.Store(0x5678)
	coord := &Coordinator{Gens: []*Gen{g}}
	set, _ := coord.Set("t")
	evs := trace.Drain(set.Sources[0])
	if len(evs) != 2 {
		t.Fatalf("events = %v", evs)
	}
	if evs[0].Kind != trace.KindRead || evs[0].Addr != 0x1234 || evs[0].Arg == 0 {
		t.Errorf("load = %v", evs[0])
	}
	if evs[1].Kind != trace.KindWrite || evs[1].Addr != 0x5678 {
		t.Errorf("store = %v", evs[1])
	}
}

func TestGenSetCPI(t *testing.T) {
	g := NewGen(0, 1)
	g.SetCPI(4, 4)
	g.Instr(5)
	coord := &Coordinator{Gens: []*Gen{g}}
	set, _ := coord.Set("t")
	for _, ev := range trace.Drain(set.Sources[0]) {
		if ev.Arg != 4 {
			t.Fatalf("cycles = %d, want 4", ev.Arg)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetCPI(0,0) did not panic")
		}
	}()
	g.SetCPI(0, 0)
}

func TestGenLockPairing(t *testing.T) {
	g := NewGen(0, 1)
	g.Lock(3)
	g.Unlock(3)
	coord := &Coordinator{Gens: []*Gen{g}}
	set, _ := coord.Set("t")
	evs := trace.Drain(set.Sources[0])
	if evs[0].Kind != trace.KindLock || evs[0].Arg != 3 || evs[0].Addr != addr.Lock(3) {
		t.Errorf("lock = %v", evs[0])
	}
	if evs[1].Kind != trace.KindUnlock {
		t.Errorf("unlock = %v", evs[1])
	}
}

func TestGenUnlockWithoutLockPanics(t *testing.T) {
	g := NewGen(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced unlock did not panic")
		}
	}()
	g.Unlock(3)
}

func TestCoordinatorSetRejectsHeldLocks(t *testing.T) {
	c := NewCoordinator(2, 1)
	c.Gens[1].Lock(0)
	if _, err := c.Set("bad"); err == nil {
		t.Fatal("Set accepted a trace with a leaked lock")
	}
}

func TestCoordinatorNextPicksMinVT(t *testing.T) {
	c := NewCoordinator(3, 1)
	c.Gens[0].VT = 100
	c.Gens[1].VT = 10
	c.Gens[2].VT = 50
	if got := c.Next(); got.CPU != 1 {
		t.Fatalf("Next picked cpu %d, want 1", got.CPU)
	}
	if got := c.MaxVT(); got != 100 {
		t.Fatalf("MaxVT = %d, want 100", got)
	}
}

func TestCoordinatorNextTiesToLowestCPU(t *testing.T) {
	c := NewCoordinator(3, 1)
	if got := c.Next(); got.CPU != 0 {
		t.Fatalf("tie broke to cpu %d, want 0", got.CPU)
	}
}

func TestGenDeterminism(t *testing.T) {
	mk := func() []trace.Event {
		g := NewGen(2, 42)
		g.Instr(50)
		g.Load(0x100)
		coord := &Coordinator{Gens: []*Gen{g}}
		set, _ := coord.Set("t")
		return trace.Drain(set.Sources[0])
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("non-deterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestScaleInt(t *testing.T) {
	if ScaleInt(100, 0.5, 1) != 50 {
		t.Error("ScaleInt(100, 0.5) != 50")
	}
	if ScaleInt(100, 0.001, 7) != 7 {
		t.Error("min not applied")
	}
	if ScaleInt(100, 2, 1) != 200 {
		t.Error("upscale broken")
	}
}

func TestFuncWindowWraps(t *testing.T) {
	g := NewGen(0, 1)
	g.SetFunc(2)
	g.Instr(3000) // far more than one window of 4-byte slots
	coord := &Coordinator{Gens: []*Gen{g}}
	set, _ := coord.Set("t")
	for _, ev := range trace.Drain(set.Sources[0]) {
		if ev.Addr < addr.Func(2) || ev.Addr >= addr.Func(3) {
			t.Fatalf("pc %#x escaped function window 2", ev.Addr)
		}
	}
}

// generatedSet generates a small two-CPU set and reports on freed when
// each generator's random source is collected.
func generatedSet(t *testing.T) (*trace.Set, chan int) {
	t.Helper()
	coord := NewCoordinator(2, 1)
	freed := make(chan int, len(coord.Gens))
	for i, g := range coord.Gens {
		g.Instr(1000)
		g.Load(0x1000)
		i := i
		runtime.SetFinalizer(g.Rand(), func(*rand.Rand) { freed <- i })
	}
	set, err := coord.Set("t")
	if err != nil {
		t.Fatal(err)
	}
	return set, freed
}

// A generated set holds its traces, not the generators that wrote them:
// with the set still referenced, every generator's random source is
// collected.
func TestSetDoesNotPinGenerators(t *testing.T) {
	set, freed := generatedSet(t)
	timeout := time.After(10 * time.Second)
	for n := 0; n < set.NCPU(); {
		runtime.GC()
		select {
		case <-freed:
			n++
		case <-timeout:
			t.Fatalf("%d of %d generators still reachable from their set", set.NCPU()-n, set.NCPU())
		}
	}
	if n, _ := set.Events(); n != 2*1001 || len(trace.Drain(set.Sources[1])) != 1001 {
		t.Fatalf("set lost events: %d stored", n)
	}
}
