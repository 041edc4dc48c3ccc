package trace

import (
	"bytes"
	"reflect"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		Exec(3), IFetch(0x1000), Read(0x2000),
		Lock(0, 0x9000), Exec(5), Write(0x2004), Unlock(0, 0x9000),
		Exec(1),
	}
}

func TestBufferYieldsAllEvents(t *testing.T) {
	evs := sampleEvents()
	b := NewBuffer(evs)
	got := Drain(b)
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("Drain = %v, want %v", got, evs)
	}
	if _, ok := b.Next(); ok {
		t.Fatal("Next after exhaustion returned ok = true")
	}
}

func TestBufferRewind(t *testing.T) {
	b := NewBuffer(sampleEvents())
	first := Drain(b)
	b.Rewind()
	second := Drain(b)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replay after Rewind differs: %v vs %v", first, second)
	}
}

func TestBufferStopsAtEndMarker(t *testing.T) {
	b := NewBuffer([]Event{Exec(1), End(), Exec(2)})
	got := Drain(b)
	want := []Event{Exec(1), End()}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Drain = %v, want %v (the sentinel is yielded; events after it must not leak)", got, want)
	}
	if _, ok := b.Next(); ok {
		t.Fatal("Next after the End sentinel returned ok = true")
	}
}

func TestBufferAppend(t *testing.T) {
	var b Buffer
	b.Append(Exec(1))
	b.Append(Read(4), Write(8))
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
}

func TestFuncSource(t *testing.T) {
	n := 0
	src := Func(func() (Event, bool) {
		if n >= 3 {
			return Event{}, false
		}
		n++
		return Exec(uint32(n)), true
	})
	got := Drain(src)
	want := []Event{Exec(1), Exec(2), Exec(3)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Drain = %v, want %v", got, want)
	}
}

func TestConcat(t *testing.T) {
	a := NewBuffer([]Event{Exec(1), Exec(2)})
	b := NewBuffer(nil)
	c := NewBuffer([]Event{Read(0x10)})
	got := Drain(Concat(a, b, c))
	want := []Event{Exec(1), Exec(2), Read(0x10)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Concat drain = %v, want %v", got, want)
	}
}

func TestConcatEmpty(t *testing.T) {
	if got := Drain(Concat()); len(got) != 0 {
		t.Fatalf("empty Concat yielded %v", got)
	}
}

func TestBufferSet(t *testing.T) {
	set := BufferSet("prog", [][]Event{{Exec(1)}, {Exec(2), Exec(3)}})
	if set.Name != "prog" {
		t.Errorf("Name = %q, want prog", set.Name)
	}
	if set.NCPU() != 2 {
		t.Fatalf("NCPU = %d, want 2", set.NCPU())
	}
	if got := Drain(set.Sources[1]); len(got) != 2 {
		t.Fatalf("cpu 1 has %d events, want 2", len(got))
	}
}

func TestTeeCapturesStream(t *testing.T) {
	evs := sampleEvents()
	var captured Buffer
	tee := &Tee{Src: NewBuffer(evs), Buf: &captured}
	Drain(tee)
	if !reflect.DeepEqual(captured.Events, evs) {
		t.Fatalf("Tee captured %v, want %v", captured.Events, evs)
	}
}

func TestLimitTruncates(t *testing.T) {
	evs := sampleEvents()
	got := Drain(Limit(NewBuffer(evs), 4))
	if !reflect.DeepEqual(got, evs[:4]) {
		t.Fatalf("Limit drain = %v, want %v", got, evs[:4])
	}
	if got := Drain(Limit(NewBuffer(evs), 0)); len(got) != 0 {
		t.Fatalf("Limit(0) yielded %v", got)
	}
	if got := Drain(Limit(NewBuffer(evs), 100)); len(got) != len(evs) {
		t.Fatalf("Limit larger than stream yielded %d events, want %d", len(got), len(evs))
	}
}

// The budget must be spent only on yielded events: after the underlying
// source is exhausted, further Next calls may not burn it, or a Rewind
// would replay a shorter stream than the first pass.
func TestLimitBudgetNotBurnedAfterExhaustion(t *testing.T) {
	evs := sampleEvents()
	l := Limit(NewBuffer(evs), len(evs)+2)
	first := Drain(l)
	for i := 0; i < 10; i++ { // hammer the exhausted source
		if _, ok := l.Next(); ok {
			t.Fatal("Next after exhaustion returned ok = true")
		}
	}
	l.(Rewinder).Rewind()
	second := Drain(l)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replay after Rewind differs: %d events vs %d", len(first), len(second))
	}
}

func TestLimitForwardsReplayCapabilities(t *testing.T) {
	evs := sampleEvents()
	l := Limit(NewBuffer(evs), 4)

	if n := l.(interface{ Len() int }).Len(); n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
	if n := Limit(NewBuffer(evs), 100).(interface{ Len() int }).Len(); n != len(evs) {
		t.Fatalf("Len of over-long limit = %d, want %d", n, len(evs))
	}

	// Clone: independent cursor from the start.
	clone := l.(Cloner).CloneSource()
	if got := Drain(clone); !reflect.DeepEqual(got, evs[:4]) {
		t.Fatalf("clone drain = %v, want %v", got, evs[:4])
	}

	// Mark/Seek mid-stream must restore both cursor and budget.
	mk := l.(Marker)
	l.Next()
	m := mk.Mark()
	rest := Drain(l)
	mk.Seek(m)
	again := Drain(l)
	if !reflect.DeepEqual(rest, again) {
		t.Fatalf("replay after Seek differs: %v vs %v", rest, again)
	}

	// Rewind restores the full budget.
	l.(Rewinder).Rewind()
	if got := Drain(l); !reflect.DeepEqual(got, evs[:4]) {
		t.Fatalf("drain after Rewind = %v, want %v", got, evs[:4])
	}

	// A capability-less source yields a capability-less limit.
	plain := Limit(Func(NewBuffer(evs).Next), 4)
	if _, ok := plain.(Marker); ok {
		t.Error("Limit of a plain Func claims Marker")
	}
	if _, ok := plain.(Rewinder); ok {
		t.Error("Limit of a plain Func claims Rewinder")
	}
}

// Capture must include the KindEnd sentinel so a captured trace re-encodes
// byte-identically to the original container.
func TestTeeRoundTrip(t *testing.T) {
	evs := append(sampleEvents(), End())

	var original bytes.Buffer
	if err := Encode(&original, "prog", [][]Event{evs}); err != nil {
		t.Fatal(err)
	}

	set, err := DecodeSet(bytes.NewReader(original.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var captured Buffer
	tee := &Tee{Src: set.Sources[0], Buf: &captured}
	Drain(tee)

	var reencoded bytes.Buffer
	if err := Encode(&reencoded, "prog", [][]Event{captured.Events}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(original.Bytes(), reencoded.Bytes()) {
		t.Fatalf("captured trace re-encodes to %d bytes differing from the %d-byte original",
			reencoded.Len(), original.Len())
	}

	// Same through a Compact capture.
	var comp Compact
	set2, err := DecodeSet(bytes.NewReader(original.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	Drain(&TeeCompact{Src: set2.Sources[0], Out: &comp})
	if got := Drain(comp.NewSource()); !reflect.DeepEqual(got, evs) {
		t.Fatalf("TeeCompact capture = %v, want %v", got, evs)
	}
}

// Set.Events must agree with what Drain (and the machine) consume, for
// Buffer sources, Compact sources, and mixed sets, with and without the
// End sentinel.
func TestEventsMatchesDrain(t *testing.T) {
	evs := sampleEvents()
	withEnd := append(sampleEvents(), End())

	var comp Compact
	for _, ev := range withEnd {
		comp.Add(ev)
	}

	sets := map[string]*Set{
		"buffers":     BufferSet("p", [][]Event{evs, withEnd}),
		"compact":     {Name: "p", Sources: []Source{comp.NewSource()}},
		"mixed":       {Name: "p", Sources: []Source{NewBuffer(withEnd), comp.NewSource(), NewBuffer(evs)}},
		"with-limit":  {Name: "p", Sources: []Source{Limit(NewBuffer(evs), 3)}},
		"with-mapped": {Name: "p", Sources: []Source{Map(NewBuffer(withEnd), func(e Event) Event { return e })}},
	}
	for name, set := range sets {
		counted, ok := set.Events()
		if !ok {
			t.Fatalf("%s: Events() not ok", name)
		}
		drained := 0
		for _, src := range set.Sources {
			drained += len(Drain(src))
		}
		if counted != drained {
			t.Errorf("%s: Events() = %d, Drain consumed %d", name, counted, drained)
		}
	}

	streaming := &Set{Name: "p", Sources: []Source{Func(NewBuffer(evs).Next)}}
	if _, ok := streaming.Events(); ok {
		t.Error("Events() of a streaming set claims a count")
	}
}

// The capability matrix: which of Marker/Rewinder/Cloner/Len each Source
// wrapper must forward. The calendar's speculation hangs on Marker, the
// trace cache on Cloner — a wrapper that silently drops or invents a
// capability breaks them, so the matrix is pinned by type assertions.
func TestSourceCapabilityMatrix(t *testing.T) {
	buf := func() Source { return NewBuffer(sampleEvents()) }
	var comp Compact
	for _, ev := range sampleEvents() {
		comp.Add(ev)
	}
	ring := NewRingSet("r", 1, 16)
	ring.Close(nil)

	cases := []struct {
		name                             string
		src                              Source
		marker, rewinder, cloner, lenner bool
	}{
		{"Buffer", buf(), true, true, true, true},
		{"CompactSource", comp.NewSource(), true, true, true, true},
		{"Func", Func(buf().Next), false, false, false, false},
		{"Tee", &Tee{Src: buf(), Buf: &Buffer{}}, false, false, false, false},
		{"TeeCompact", &TeeCompact{Src: buf(), Out: &Compact{}}, false, false, false, false},
		{"Limit(Buffer)", Limit(buf(), 3), true, true, true, true},
		{"Limit(Func)", Limit(Func(buf().Next), 3), false, false, false, false},
		{"Concat(Buffer,Buffer)", Concat(buf(), buf()), false, true, true, true},
		{"Concat(Buffer,Func)", Concat(buf(), Func(buf().Next)), false, false, false, false},
		{"Map(Buffer)", Map(buf(), func(e Event) Event { return e }), true, true, true, true},
		{"Map(Func)", Map(Func(buf().Next), func(e Event) Event { return e }), false, false, false, false},
		{"RingSource", ring.Set().Sources[0], false, false, false, false},
	}
	for _, tc := range cases {
		if _, ok := tc.src.(Marker); ok != tc.marker {
			t.Errorf("%s: Marker = %v, want %v", tc.name, ok, tc.marker)
		}
		if _, ok := tc.src.(Rewinder); ok != tc.rewinder {
			t.Errorf("%s: Rewinder = %v, want %v", tc.name, ok, tc.rewinder)
		}
		if _, ok := tc.src.(Cloner); ok != tc.cloner {
			t.Errorf("%s: Cloner = %v, want %v", tc.name, ok, tc.cloner)
		}
		if _, ok := tc.src.(interface{ Len() int }); ok != tc.lenner {
			t.Errorf("%s: Len = %v, want %v", tc.name, ok, tc.lenner)
		}
	}
}
