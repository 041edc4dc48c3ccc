package trace

import (
	"encoding/binary"
	"fmt"
)

// Compact is an append-only, varint-encoded in-memory trace for one
// processor. Generated traces (millions of events per CPU) take 1.5-2.3
// bytes per event instead of the 12 bytes of the Event struct, which is
// what lets the trace caches hold paper-scale workloads.
//
// Each record starts with a header byte: the kind in the low 3 bits and a
// 5-bit argument field in the high bits. Addressed kinds carry a zigzag
// varint address delta against one of two predictors: instruction
// fetches against the last fetch address, every other addressed kind
// against the last data address, so the fetches' short strides are not
// broken up by the data references they interleave with. Exec, Barrier
// and End records carry no address. The argument field reads:
//
//	kind          field  meaning
//	IFetch        0-15   argument inline; explicit address delta follows
//	IFetch        16-30  next word: address = last fetch + 4, no address
//	                     bytes; argument = field - 16 (0-14)
//	other kinds   0-30   argument inline
//	any           31     escape: uvarint argument, then the address delta
//	                     if the kind has one
//
// Two thirds of generated events are fetches, and nearly all of them
// fetch the next word with 2-5 pre-cycles, so most fetches take the one
// header byte.
//
// The on-disk container (EncodeSet, DecodeSet) stores these records as-is,
// so a trace read from a file replays in place.
//
// Append events with Add, then create any number of independent replay
// cursors with NewSource.
type Compact struct {
	buf        []byte
	n          int
	code, data uint32 // address predictors of the last Add
}

// Header argument field values: argEscape defers the argument to a uvarint
// after the header byte; a fetch's field from argNextWord up to argEscape
// is a next-word record carrying argument field-argNextWord.
const (
	argNextWord = 16
	argEscape   = 31
)

// Len returns the number of events stored.
func (c *Compact) Len() int { return c.n }

// Bytes returns the encoded size in bytes, for diagnostics.
func (c *Compact) Bytes() int { return len(c.buf) }

// Trim returns a copy of c whose buffer has exactly the encoded size. A
// generator hands finished traces out this way, so a long-lived cache holds
// neither the append slack nor the generator that owned c.
func (c *Compact) Trim() *Compact {
	t := *c
	t.buf = make([]byte, len(c.buf))
	copy(t.buf, c.buf)
	return &t
}

// Reset empties c for reuse, keeping its buffer's capacity.
func (c *Compact) Reset() { *c = Compact{buf: c.buf[:0]} }

// Add appends an event. It panics on invalid event kinds; generators are
// trusted code.
func (c *Compact) Add(ev Event) {
	if !ev.Kind.Valid() {
		panic(fmt.Sprintf("trace: Compact.Add of invalid kind %d", ev.Kind))
	}
	if ev.Kind == KindIFetch && ev.Addr == c.code+4 && ev.Arg < argEscape-argNextWord {
		c.buf = append(c.buf, byte(KindIFetch)|byte(ev.Arg+argNextWord)<<3)
		c.code = ev.Addr
		c.n++
		return
	}
	inline := uint32(argEscape)
	if ev.Kind == KindIFetch {
		inline = argNextWord // the fields above are next-word records
	}
	if ev.Arg < inline {
		c.buf = append(c.buf, byte(ev.Kind)|byte(ev.Arg)<<3)
	} else {
		c.buf = append(c.buf, byte(ev.Kind)|argEscape<<3)
		c.buf = binary.AppendUvarint(c.buf, uint64(ev.Arg))
	}
	switch ev.Kind {
	case KindIFetch:
		c.buf = binary.AppendVarint(c.buf, int64(int32(ev.Addr-c.code)))
		c.code = ev.Addr
	case KindRead, KindWrite, KindLock, KindUnlock:
		c.buf = binary.AppendVarint(c.buf, int64(int32(ev.Addr-c.data)))
		c.data = ev.Addr
	}
	c.n++
}

// NewSource returns a replay cursor positioned at the first event. Multiple
// cursors over one Compact are independent; the Compact must not be
// appended to while cursors are in use.
func (c *Compact) NewSource() *CompactSource {
	return &CompactSource{c: c}
}

// CompactSource replays a Compact trace as a Source. Like Buffer, it
// yields a stored End and then reports the trace exhausted.
type CompactSource struct {
	c          *Compact
	pos        int
	code, data uint32
}

// uvarint decodes the unsigned varint at the cursor. Address deltas are
// mostly single bytes, so that case is decoded inline and only the
// multi-byte tail pays for binary.Uvarint's loop.
func (s *CompactSource) uvarint() uint64 {
	if b := s.c.buf[s.pos]; b < 0x80 {
		s.pos++
		return uint64(b)
	}
	v, n := binary.Uvarint(s.c.buf[s.pos:])
	s.pos += n
	return v
}

// delta decodes the zigzag-encoded address delta at the cursor.
func (s *CompactSource) delta() uint32 {
	ux := s.uvarint()
	return uint32(ux>>1) ^ -uint32(ux&1)
}

// Next implements Source.
func (s *CompactSource) Next() (Event, bool) {
	if s.pos >= len(s.c.buf) {
		return Event{}, false
	}
	h := s.c.buf[s.pos]
	s.pos++
	// The next-word fetch is the commonest record: decode it first.
	if arg := uint32(h>>3) - argNextWord; Kind(h&7) == KindIFetch && arg < argEscape-argNextWord {
		s.code += 4
		return Event{Kind: KindIFetch, Arg: arg, Addr: s.code}, true
	}
	ev := Event{Kind: Kind(h & 7), Arg: uint32(h >> 3)}
	if ev.Arg == argEscape {
		ev.Arg = uint32(s.uvarint())
	}
	switch ev.Kind {
	case KindIFetch:
		s.code += s.delta()
		ev.Addr = s.code
	case KindRead, KindWrite, KindLock, KindUnlock:
		s.data += s.delta()
		ev.Addr = s.data
	case KindEnd:
		s.pos = len(s.c.buf)
	}
	return ev, true
}

// CloneSource returns an independent cursor over the same compact trace,
// positioned at the first event. The underlying buffer is shared read-only.
func (s *CompactSource) CloneSource() Source { return s.c.NewSource() }

// Len returns the total number of events in the underlying compact trace.
func (s *CompactSource) Len() int { return s.c.n }

// Rewind repositions the cursor at the first event.
func (s *CompactSource) Rewind() {
	s.pos = 0
	s.code, s.data = 0, 0
}

// Mark implements Marker. The snapshot carries the byte offset and both
// address predictors, so Seek restores the cursor bit-exactly mid-stream.
func (s *CompactSource) Mark() Mark {
	return Mark{Pos: s.pos, Code: s.code, Data: s.data}
}

// Seek implements Marker.
func (s *CompactSource) Seek(m Mark) {
	s.pos = m.Pos
	s.code, s.data = m.Code, m.Data
}

// CompactSet builds a trace Set whose sources replay the given compact
// per-CPU traces.
func CompactSet(name string, cpus []*Compact) *Set {
	set := &Set{Name: name, Sources: make([]Source, len(cpus))}
	for i, c := range cpus {
		set.Sources[i] = c.NewSource()
	}
	return set
}
