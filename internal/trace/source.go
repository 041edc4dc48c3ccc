package trace

import "fmt"

// Source is a stream of trace events for one processor. Implementations may
// materialise the whole trace in memory (Buffer) or generate events lazily
// (workload kernels generate multi-million-event traces on the fly without
// ever holding them in memory).
type Source interface {
	// Next returns the next event. ok is false when the trace is
	// exhausted; after that, Next must keep returning ok == false.
	Next() (ev Event, ok bool)
}

// Buffer is an in-memory trace that can be replayed from the start any
// number of times. The zero value is an empty trace.
type Buffer struct {
	Events []Event
	pos    int
}

// NewBuffer returns a Buffer over the given events. The slice is used
// directly, not copied.
func NewBuffer(events []Event) *Buffer { return &Buffer{Events: events} }

// Next implements Source. A stored KindEnd sentinel is yielded like any
// other event (the machine treats it as end-of-trace) and terminates the
// stream: events stored after it never leak out. This matches
// CompactSource, so every counted event — Len, Drain, Encode — is an event
// the consumer actually sees.
func (b *Buffer) Next() (Event, bool) {
	if b.pos >= len(b.Events) {
		return Event{}, false
	}
	ev := b.Events[b.pos]
	b.pos++
	if ev.Kind == KindEnd {
		b.pos = len(b.Events)
	}
	return ev, true
}

// Rewind resets the buffer to the beginning of the trace.
func (b *Buffer) Rewind() { b.pos = 0 }

// Len returns the total number of events in the buffer.
func (b *Buffer) Len() int { return len(b.Events) }

// Func adapts a function to the Source interface.
type Func func() (Event, bool)

// Next implements Source.
func (f Func) Next() (Event, bool) { return f() }

// Drain reads every remaining event from src into a slice. It is intended
// for tests and tools; production simulation consumes sources lazily.
func Drain(src Source) []Event {
	var events []Event
	for {
		ev, ok := src.Next()
		if !ok {
			return events
		}
		events = append(events, ev)
	}
}

// Set is a complete multi-processor trace: one Source per processor plus a
// human-readable name (typically the benchmark name).
type Set struct {
	Name    string
	Sources []Source
}

// NCPU returns the number of processors in the set.
func (s *Set) NCPU() int { return len(s.Sources) }

// BufferSet materialises per-CPU event slices into a Set of Buffers.
func BufferSet(name string, cpus [][]Event) *Set {
	set := &Set{Name: name, Sources: make([]Source, len(cpus))}
	for i, evs := range cpus {
		set.Sources[i] = NewBuffer(evs)
	}
	return set
}

// Clone builds an independent cursor set over the same underlying traces;
// it is shorthand for the package-level Clone.
func (s *Set) Clone() (*Set, error) { return Clone(s) }

// Events returns the total number of events across all sources, when every
// source can report its length (Buffer and CompactSource can; lazily
// generated sources cannot, and ok is false). The count includes any
// KindEnd sentinels and agrees exactly with what Drain — and the machine —
// consume per CPU (pinned by TestEventsMatchesDrain).
func (s *Set) Events() (n int, ok bool) {
	type lenner interface{ Len() int }
	for _, src := range s.Sources {
		l, canLen := src.(lenner)
		if !canLen {
			return 0, false
		}
		n += l.Len()
	}
	return n, true
}

// Rewinder is implemented by replayable sources (Buffer, CompactSource).
type Rewinder interface {
	Rewind()
}

// Mark is a saved replay position captured by Marker.Mark. It is a value
// snapshot of the cursor, not a reference: holding a Mark costs nothing and
// Seek restores the exact decode state, including the two address
// predictors (Code, Data) of compact traces.
type Mark struct {
	Pos        int
	Code, Data uint32
}

// Marker is implemented by sources whose cursor can be saved and restored
// mid-stream (Buffer, CompactSource). The calendar's leases use it to
// rewind a processor's trace to the start of a run-ahead window when the
// speculation must be replayed.
type Marker interface {
	// Mark captures the current cursor position.
	Mark() Mark
	// Seek restores a position previously captured by Mark on this source.
	Seek(Mark)
}

// Mark implements Marker.
func (b *Buffer) Mark() Mark { return Mark{Pos: b.pos} }

// Seek implements Marker.
func (b *Buffer) Seek(m Mark) { b.pos = m.Pos }

// Cloner is implemented by sources that can produce an independent cursor
// over the same underlying trace, so several simulations can replay one
// generated trace concurrently.
type Cloner interface {
	CloneSource() Source
}

// CloneSource returns an independent replay cursor over the same events.
func (b *Buffer) CloneSource() Source { return NewBuffer(b.Events) }

// Clone builds an independent cursor set over the same underlying traces.
// The underlying data is shared read-only; each clone replays from the
// start. It fails if any source is not cloneable.
func Clone(set *Set) (*Set, error) {
	out := &Set{Name: set.Name, Sources: make([]Source, len(set.Sources))}
	for i, src := range set.Sources {
		c, ok := src.(Cloner)
		if !ok {
			return nil, fmt.Errorf("trace: source %d of %q is not cloneable", i, set.Name)
		}
		out.Sources[i] = c.CloneSource()
	}
	return out, nil
}

// Reset rewinds every source of a set to the beginning, so one generated
// trace can be analysed and then simulated under several machine
// configurations. It fails if any source is not replayable.
func Reset(set *Set) error {
	for i, src := range set.Sources {
		r, ok := src.(Rewinder)
		if !ok {
			return fmt.Errorf("trace: source %d of %q is not replayable", i, set.Name)
		}
		r.Rewind()
	}
	return nil
}
