package bus

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestDefaultTimingDurations(t *testing.T) {
	tm := DefaultTiming()
	cases := []struct {
		op   Op
		want uint64
	}{
		{OpRead, 1},
		{OpReadOwn, 1},
		{OpInvalidate, 1},
		{OpWriteBack, 3},
		{OpResponse, 2},
		{OpCacheToCache, 3},
	}
	for _, c := range cases {
		if got := tm.Duration(c.op); got != c.want {
			t.Errorf("Duration(%v) = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestOccupyAndFree(t *testing.T) {
	b := New(3, DefaultTiming())
	if !b.Free(0) {
		t.Fatal("new bus not free")
	}
	end := b.Occupy(1, OpResponse, 10, 0)
	if end != 12 {
		t.Fatalf("Occupy returned %d, want 12", end)
	}
	if b.Free(11) {
		t.Error("bus free mid-transaction")
	}
	if got := b.Holder(11); got != 1 {
		t.Errorf("Holder = %d, want 1", got)
	}
	if !b.Free(12) {
		t.Error("bus not free at completion cycle")
	}
	if got := b.Holder(12); got != -1 {
		t.Errorf("Holder after completion = %d, want -1", got)
	}
}

func TestOccupyExtraCycles(t *testing.T) {
	b := New(1, DefaultTiming())
	end := b.Occupy(0, OpRead, 0, 2) // piggybacked transfer
	if end != 3 {
		t.Fatalf("end = %d, want 3 (1 request + 2 extra)", end)
	}
}

func TestOccupyWhileBusyPanics(t *testing.T) {
	b := New(1, DefaultTiming())
	b.Occupy(0, OpRead, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Occupy while busy did not panic")
		}
	}()
	b.Occupy(0, OpRead, 0, 0)
}

func TestArbitrateBusyBus(t *testing.T) {
	b := New(2, DefaultTiming())
	b.Occupy(0, OpWriteBack, 0, 0)
	if _, ok := b.Arbitrate(1, b.Every, func(int) bool { return true }); ok {
		t.Fatal("arbitration granted while bus busy")
	}
	if _, ok := b.Arbitrate(3, b.Every, func(int) bool { return true }); !ok {
		t.Fatal("arbitration refused on free bus")
	}
}

func TestArbitrateNobodyReady(t *testing.T) {
	b := New(4, DefaultTiming())
	if _, ok := b.Arbitrate(0, b.Every, func(int) bool { return false }); ok {
		t.Fatal("granted with no ready requester")
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// All requesters always ready: grants must cycle 0,1,2,0,1,2,...
	b := New(3, DefaultTiming())
	now := uint64(0)
	var order []int
	for i := 0; i < 9; i++ {
		got, ok := b.Arbitrate(now, b.Every, func(int) bool { return true })
		if !ok {
			t.Fatal("arbitration failed")
		}
		order = append(order, got)
		now = b.Occupy(got, OpRead, now, 0)
	}
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

func TestRoundRobinSkipsNotReady(t *testing.T) {
	b := New(4, DefaultTiming())
	ready := map[int]bool{1: true, 3: true}
	got, ok := b.Arbitrate(0, b.Every, func(i int) bool { return ready[i] })
	if !ok || got != 1 {
		t.Fatalf("grant = %d ok=%v, want 1", got, ok)
	}
	b.Occupy(got, OpRead, 0, 0)
	got, ok = b.Arbitrate(1, b.Every, func(i int) bool { return ready[i] })
	if !ok || got != 3 {
		t.Fatalf("grant = %d ok=%v, want 3", got, ok)
	}
}

// TestArbitrateCandidateWalk pins the candidate walk to the full scan:
// over random ready sets, random candidate supersets of them and random
// pointer positions, through runs of consecutive arbitrations, a bus
// asking only the candidates grants the same requester and leaves the same
// round-robin pointer as a twin bus asking every requester. The last
// requester plays the machine's memory controller, which its walk offers
// exactly when it is ready.
func TestArbitrateCandidateWalk(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 7))
	for trial := 0; trial < 5000; trial++ {
		nreq := 1 + rng.IntN(130)
		full, walk := New(nreq, DefaultTiming()), New(nreq, DefaultTiming())
		full.rrNext = rng.IntN(nreq)
		walk.rrNext = full.rrNext
		ready := make([]bool, nreq)
		cand := make([]bool, nreq)
		next := func(from int) int {
			for i := from; i < nreq; i++ {
				if cand[i] {
					return i
				}
			}
			return -1
		}
		askFull := func(i int) bool { return ready[i] }
		askWalk := func(i int) bool {
			if !cand[i] {
				t.Fatalf("trial %d: asked requester %d, which is no candidate", trial, i)
			}
			return ready[i]
		}
		now := uint64(0)
		for step := 0; step < 8; step++ {
			density := 1 + rng.IntN(8)
			for i := range ready {
				ready[i] = rng.IntN(density) == 0
				cand[i] = ready[i] || rng.IntN(3) == 0
			}
			cand[nreq-1] = ready[nreq-1]
			want, wantOK := full.Arbitrate(now, full.Every, askFull)
			got, gotOK := walk.Arbitrate(now, next, askWalk)
			if got != want || gotOK != wantOK || walk.rrNext != full.rrNext {
				t.Fatalf("trial %d step %d (%d requesters): walk granted %d (%v) with pointer %d, full scan %d (%v) with pointer %d",
					trial, step, nreq, got, gotOK, walk.rrNext, want, wantOK, full.rrNext)
			}
			if wantOK {
				full.Occupy(want, OpRead, now, 0)
				now = walk.Occupy(got, OpRead, now, 0)
			}
		}
	}
}

// Property: under persistent demand from all requesters, round-robin never
// lets any requester starve — the gap between consecutive grants to the
// same requester is at most nreq transactions.
func TestNoStarvationProperty(t *testing.T) {
	check := func(n uint8, rounds uint8) bool {
		nreq := int(n%6) + 2
		b := New(nreq, DefaultTiming())
		last := make([]int, nreq)
		for i := range last {
			last[i] = -1
		}
		now := uint64(0)
		total := (int(rounds%16) + 2) * nreq
		for tx := 0; tx < total; tx++ {
			got, ok := b.Arbitrate(now, b.Every, func(int) bool { return true })
			if !ok {
				return false
			}
			if last[got] >= 0 && tx-last[got] > nreq {
				return false
			}
			last[got] = tx
			now = b.Occupy(got, OpRead, now, 0)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	b := New(2, DefaultTiming())
	now := b.Occupy(0, OpRead, 0, 0)
	now = b.Occupy(1, OpResponse, now, 0)
	b.Occupy(0, OpWriteBack, now, 0)
	st := b.Stats()
	if st.Count(OpRead) != 1 || st.Count(OpResponse) != 1 || st.Count(OpWriteBack) != 1 {
		t.Errorf("counts wrong: %+v", st.Grants)
	}
	if st.Total() != 3 {
		t.Errorf("Total = %d, want 3", st.Total())
	}
	if st.BusyCycles != 1+2+3 {
		t.Errorf("BusyCycles = %d, want 6", st.BusyCycles)
	}
	if got := st.Utilization(12); got != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	if got := st.Utilization(0); got != 0 {
		t.Errorf("Utilization(0) = %v, want 0", got)
	}
	if st.Count(Op(99)) != 0 {
		t.Error("Count of invalid op should be 0")
	}
}

func TestNewPanicsOnZeroRequesters(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, DefaultTiming())
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpCacheToCache.String() != "c2c" {
		t.Error("op names wrong")
	}
	if Op(99).String() == "" {
		t.Error("invalid op prints empty")
	}
}

func TestUtilizationTable(t *testing.T) {
	tests := []struct {
		name    string
		busy    uint64
		elapsed uint64
		want    float64
	}{
		{"zero elapsed", 10, 0, 0},
		{"zero busy", 0, 100, 0},
		{"half", 50, 100, 0.5},
		{"saturated", 100, 100, 1},
		{"both zero", 0, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := Stats{BusyCycles: tt.busy}
			if got := s.Utilization(tt.elapsed); got != tt.want {
				t.Errorf("Utilization(%d) with busy %d = %v, want %v",
					tt.elapsed, tt.busy, got, tt.want)
			}
		})
	}
}

func TestCheckConservation(t *testing.T) {
	tm := DefaultTiming()
	b := New(2, tm)
	now := b.Occupy(0, OpRead, 0, 0)
	now = b.Occupy(1, OpResponse, now, 0)
	now = b.Occupy(0, OpWriteBack, now, 0)
	b.Occupy(1, OpCacheToCache, now, 2) // piggybacked extra cycles
	if err := b.Stats().CheckConservation(tm); err != nil {
		t.Errorf("conservation violated on clean run: %v", err)
	}
	if b.Stats().ExtraCycles != 2 {
		t.Errorf("ExtraCycles = %d, want 2", b.Stats().ExtraCycles)
	}

	// A grant recorded without its occupancy must be flagged.
	bad := *b.Stats()
	bad.Grants[OpInvalidate]++
	if err := bad.CheckConservation(tm); err == nil {
		t.Error("conservation not violated after phantom grant")
	}

	// Busy cycles with no grant behind them must be flagged too.
	bad = *b.Stats()
	bad.BusyCycles += 3
	if err := bad.CheckConservation(tm); err == nil {
		t.Error("conservation not violated after phantom busy cycles")
	}
}
