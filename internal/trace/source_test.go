package trace

import (
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
