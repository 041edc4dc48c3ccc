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

// Append adds events to the end of the buffer.
func (b *Buffer) Append(events ...Event) { b.Events = append(b.Events, events...) }

// Next implements Source. A stored KindEnd sentinel is yielded like any
// other event (the machine treats it as end-of-trace) and terminates the
// stream: events stored after it never leak out. This matches
// CompactSource, so every counted event — Len, Drain, Encode — is an event
// the consumer actually sees, and capture wrappers like Tee record the
// sentinel instead of silently dropping it.
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

// Concat returns a Source that yields all events of each source in turn.
//
// When every child is rewindable, cloneable and length-reporting, the
// concatenation forwards those capabilities. It never implements Marker:
// a Mark is a single-cursor snapshot and cannot name which child it was
// taken in, so a concatenated trace always runs on the serial scheduler.
func Concat(sources ...Source) Source {
	c := &concat{sources: sources}
	type replayable interface {
		Rewinder
		Cloner
		Len() int
	}
	for _, src := range sources {
		if _, ok := src.(replayable); !ok {
			return c
		}
	}
	return &concatReplay{concat: c}
}

type concat struct {
	sources []Source
	i       int
}

func (c *concat) Next() (Event, bool) {
	for c.i < len(c.sources) {
		if ev, ok := c.sources[c.i].Next(); ok {
			return ev, true
		}
		c.i++
	}
	return Event{}, false
}

// concatReplay forwards Rewinder/Cloner/Len when every child has them.
type concatReplay struct {
	*concat
}

// Len sums the children's event counts.
func (c *concatReplay) Len() int {
	n := 0
	for _, src := range c.sources {
		n += src.(interface{ Len() int }).Len()
	}
	return n
}

// Rewind restarts every child and the child cursor.
func (c *concatReplay) Rewind() {
	for _, src := range c.sources {
		src.(Rewinder).Rewind()
	}
	c.i = 0
}

// CloneSource returns an independent concatenation of child clones.
func (c *concatReplay) CloneSource() Source {
	clones := make([]Source, len(c.sources))
	for i, src := range c.sources {
		clones[i] = src.(Cloner).CloneSource()
	}
	return Concat(clones...)
}

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
	// Rem is used by wrappers that meter the stream (Limit): the budget
	// remaining at the time of the mark. Unwrapped sources ignore it.
	Rem int
}

// Marker is implemented by sources whose cursor can be saved and restored
// mid-stream (Buffer, CompactSource). The machine's speculative parallel
// scheduler uses it to rewind a processor's trace to the start of a
// run-ahead window when the speculation must be replayed.
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

// Tee wraps a Source and appends every event it yields to a Buffer, so a
// lazily generated trace can be captured while it is consumed. Because
// sources yield their KindEnd sentinel as an ordinary event, the capture
// is byte-faithful: re-encoding the captured buffer reproduces the
// original container exactly (pinned by TestTeeRoundTrip).
//
// Tee deliberately implements none of the replay capabilities
// (Marker/Rewinder/Cloner): rewinding or cloning mid-capture would
// duplicate or reorder captured events, so a teed source always drops the
// machine to the serial scheduler.
type Tee struct {
	Src Source
	Buf *Buffer
}

// Next implements Source.
func (t *Tee) Next() (Event, bool) {
	ev, ok := t.Src.Next()
	if ok {
		t.Buf.Append(ev)
	}
	return ev, ok
}

// TeeCompact wraps a Source and appends every event it yields to a Compact
// trace: the memory-efficient capture for multi-million-event streams
// (2-3 bytes per generated event instead of Buffer's 12). Like Tee it
// implements no replay capabilities.
type TeeCompact struct {
	Src Source
	Out *Compact
}

// Next implements Source.
func (t *TeeCompact) Next() (Event, bool) {
	ev, ok := t.Src.Next()
	if ok {
		t.Out.Add(ev)
	}
	return ev, ok
}

// Limit wraps a Source and cuts the stream after n events. It is useful for
// failure-injection tests that simulate truncated traces.
//
// The wrapper forwards the replay capabilities the wrapped source actually
// has: a fully replayable source (Buffer, CompactSource) stays fully
// replayable — Marker, Rewinder, Cloner and Len all work and account for
// the cut — while a plain streaming source stays a plain source. An
// earlier version wrapped everything in a bare Func, which silently
// downgraded any limited trace to the serial scheduler and burned the
// budget even after the underlying source was exhausted.
func Limit(src Source, n int) Source {
	if n < 0 {
		n = 0
	}
	l := &limit{src: src, n: n, remaining: n}
	type replayable interface {
		Marker
		Rewinder
		Cloner
		Len() int
	}
	if _, ok := src.(replayable); ok {
		return &limitReplay{limit: l}
	}
	return l
}

// limit is the capability-less form: it only streams.
type limit struct {
	src       Source
	n         int // original budget, for Rewind/Clone
	remaining int
}

// Next implements Source. The budget is spent only on events actually
// yielded; an exhausted underlying source does not consume it.
func (l *limit) Next() (Event, bool) {
	if l.remaining <= 0 {
		return Event{}, false
	}
	ev, ok := l.src.Next()
	if !ok {
		return Event{}, false
	}
	l.remaining--
	return ev, true
}

// limitReplay adds the full replay capability set, used when the wrapped
// source has all of Marker/Rewinder/Cloner/Len itself.
type limitReplay struct {
	*limit
}

// Len returns the number of events the limited stream yields in total.
func (l *limitReplay) Len() int {
	n := l.src.(interface{ Len() int }).Len()
	if n > l.n {
		n = l.n
	}
	return n
}

// Rewind restarts both the underlying source and the event budget.
func (l *limitReplay) Rewind() {
	l.src.(Rewinder).Rewind()
	l.remaining = l.n
}

// CloneSource returns an independent limited cursor from the start.
func (l *limitReplay) CloneSource() Source {
	return Limit(l.src.(Cloner).CloneSource(), l.n)
}

// Mark implements Marker: the snapshot carries the underlying cursor plus
// the remaining budget (Mark.Rem).
func (l *limitReplay) Mark() Mark {
	m := l.src.(Marker).Mark()
	m.Rem = l.remaining
	return m
}

// Seek implements Marker.
func (l *limitReplay) Seek(m Mark) {
	l.src.(Marker).Seek(m)
	l.remaining = m.Rem
}
