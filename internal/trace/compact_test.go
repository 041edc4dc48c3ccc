package trace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCompactRoundTrip(t *testing.T) {
	events := []Event{
		Exec(10), ReadAfter(3, 0x1000), WriteAfter(0, 0x2000),
		IFetchAfter(2, 0x100), Lock(1, 0x9000), Exec(5), Unlock(1, 0x9000),
		Barrier(2),
	}
	var c Compact
	for _, ev := range events {
		c.Add(ev)
	}
	if c.Len() != len(events) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(events))
	}
	got := Drain(c.NewSource())
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("replay = %v, want %v", got, events)
	}
}

func TestCompactMultipleCursors(t *testing.T) {
	var c Compact
	c.Add(Exec(1))
	c.Add(Read(0x10))
	s1, s2 := c.NewSource(), c.NewSource()
	a1 := Drain(s1)
	a2 := Drain(s2)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("cursors disagree: %v vs %v", a1, a2)
	}
}

func TestCompactRewind(t *testing.T) {
	var c Compact
	c.Add(Read(0x10))
	c.Add(Write(0x20))
	s := c.NewSource()
	first := Drain(s)
	s.Rewind()
	second := Drain(s)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("rewind replay differs")
	}
}

func TestCompactAddInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add of invalid kind did not panic")
		}
	}()
	var c Compact
	c.Add(Event{Kind: 99})
}

func TestCompactSet(t *testing.T) {
	var a, b Compact
	a.Add(Exec(1))
	b.Add(Exec(2))
	b.Add(Exec(3))
	set := CompactSet("cs", []*Compact{&a, &b})
	if set.NCPU() != 2 || set.Name != "cs" {
		t.Fatalf("set = %+v", set)
	}
	if len(Drain(set.Sources[1])) != 2 {
		t.Fatal("cpu1 replay wrong")
	}
}

// A strided read with a small pre-cycle count is one header byte plus a
// one-byte address delta; only the first address's jump from zero takes
// a second delta byte.
func TestCompactCompression(t *testing.T) {
	var c Compact
	addr := uint32(0x1000)
	for i := 0; i < 10000; i++ {
		c.Add(ReadAfter(3, addr))
		addr += 4
	}
	if got := c.Bytes(); got > 2*c.Len()+1 {
		t.Errorf("compact trace uses %d bytes for %d events", got, c.Len())
	}
}

// Fetches and data references alternate between far-apart regions, yet
// each keeps its own one-byte stride: the two predictors do not disturb
// each other. Only the two opening jumps from zero take more (3 and 4
// extra delta bytes).
func TestCompactSeparatePredictors(t *testing.T) {
	var c Compact
	code, data := uint32(0x0010_0000), uint32(0xC000_0000)
	for i := 0; i < 1000; i++ {
		c.Add(IFetchAfter(2, code))
		c.Add(WriteAfter(3, data))
		code += 4
		data -= 8
	}
	if got := c.Bytes(); got > 2*c.Len()+7 {
		t.Errorf("alternating stream uses %d bytes for %d events", got, c.Len())
	}
}

// edgeArgs straddle the header's inline range (0-30), its escape value
// (31) and the uvarint's byte boundaries.
var edgeArgs = []uint32{0, 1, 30, 31, 32, 127, 128, 1 << 21, math.MaxUint32}

// edgeSteps are address deltas from the one-byte stride to the ±2^31
// extremes of the zigzag varint.
var edgeSteps = []uint32{4, ^uint32(3), 64, 1<<31 - 1, 1 << 31, 1<<31 + 1}

// compactEvents returns n random events of every kind. Arguments favour
// edgeArgs, instruction fetches walk a code region and every other
// addressed kind a far-apart data region, with edgeSteps and random
// jumps mixed in. Half the streams end in an End.
func compactEvents(rng *rand.Rand, n int) []Event {
	code, data := uint32(0x0010_0000), uint32(0xC000_0000)
	arg := func() uint32 {
		if rng.Intn(2) == 0 {
			return edgeArgs[rng.Intn(len(edgeArgs))]
		}
		return rng.Uint32() >> rng.Intn(32)
	}
	step := func(a uint32) uint32 {
		if rng.Intn(4) == 0 {
			return rng.Uint32()
		}
		return a + edgeSteps[rng.Intn(len(edgeSteps))]
	}
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		ev := Event{Kind: Kind(rng.Intn(int(KindEnd))), Arg: arg()}
		switch ev.Kind {
		case KindIFetch:
			code = step(code)
			ev.Addr = code
		case KindRead, KindWrite, KindLock, KindUnlock:
			data = step(data)
			ev.Addr = data
		}
		events = append(events, ev)
	}
	if n > 0 && rng.Intn(2) == 0 {
		events[n-1] = Event{Kind: KindEnd, Arg: arg()}
	}
	return events
}

func compactOf(events []Event) *Compact {
	var c Compact
	for _, ev := range events {
		c.Add(ev)
	}
	return &c
}

// Property: Compact replay equals the original stream for arbitrary events.
func TestCompactRoundTripProperty(t *testing.T) {
	check := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		events := compactEvents(rng, int(n%1000))
		c := compactOf(events)
		got := Drain(c.NewSource())
		if c.Len() != len(events) || len(got) != len(events) {
			return false
		}
		for i := range events {
			if got[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Seek to a Mark taken anywhere — right after a fetch, right
// after a data reference, or at random — replays the rest of the trace
// exactly, on the original cursor and on a clone.
func TestCompactMarkSeekProperty(t *testing.T) {
	check := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		want := compactEvents(rng, int(n%200)+1)
		c := compactOf(want)
		var at []int
		for i := range want {
			if i == 0 || want[i-1].Kind == KindIFetch || want[i-1].Kind.IsData() {
				at = append(at, i)
			}
		}
		at = append(at, rng.Intn(len(want)+1), len(want))
		orig := c.NewSource()
		clone := orig.CloneSource().(*CompactSource)
		for _, src := range []*CompactSource{orig, clone} {
			for _, k := range at {
				src.Rewind()
				for i := 0; i < k; i++ {
					src.Next()
				}
				m := src.Mark()
				first := Drain(src)
				src.Seek(m)
				again := Drain(src)
				if !reflect.DeepEqual(first, again) || len(first) != len(want)-k {
					return false
				}
				for i := range first {
					if first[i] != want[k+i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A stored End exhausts a compact cursor as it does a Buffer: Drain, a
// Seek back to a mark before it and a Rewind all stop there.
func TestCompactStopsAtEnd(t *testing.T) {
	events := []Event{Read(0x10), End(), Read(0x20)}
	want := events[:2]
	type cursor interface {
		Source
		Marker
		Rewinder
		Len() int
	}
	for name, src := range map[string]cursor{
		"buffer":  NewBuffer(events),
		"compact": compactOf(events).NewSource(),
	} {
		if got := Drain(src); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Drain = %v, want %v", name, got, want)
		}
		if _, ok := src.Next(); ok {
			t.Errorf("%s: Next after End returned ok", name)
		}
		src.Rewind()
		src.Next()
		m := src.Mark()
		if got := Drain(src); !reflect.DeepEqual(got, want[1:]) {
			t.Errorf("%s: Drain after mark = %v, want %v", name, got, want[1:])
		}
		src.Seek(m)
		if got := Drain(src); !reflect.DeepEqual(got, want[1:]) {
			t.Errorf("%s: Drain after Seek = %v, want %v", name, got, want[1:])
		}
		src.Rewind()
		if got := Drain(src); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Drain after Rewind = %v, want %v", name, got, want)
		}
		if src.Len() != len(events) {
			t.Errorf("%s: Len = %d, want %d stored events", name, src.Len(), len(events))
		}
	}
}
