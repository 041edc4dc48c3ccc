package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary trace container.
//
// Layout (all multi-byte integers are unsigned LEB128 varints):
//
//	magic   "SSTR" (4 bytes)
//	version u8 (currently 2)
//	name    varint length + bytes
//	ncpu    varint
//	ncpu ×:
//	    nbytes varint
//	    nbytes of Compact records
//
// Each CPU's events are stored exactly as a Compact holds them in memory
// (see Compact for the record format), up to and including its first End.
// Version 1 stored a separate per-event encoding; it is refused with
// ErrBadVersion, and tracegen rewrites any such file from its parameters.
const (
	codecMagic   = "SSTR"
	codecVersion = 2
)

// Common codec errors.
var (
	ErrBadMagic   = errors.New("trace: bad magic; not a trace container")
	ErrBadVersion = errors.New("trace: unsupported container version")
	ErrCorrupt    = errors.New("trace: corrupt container")
)

// Encode writes a full multi-processor trace to w. The per-CPU traces are
// provided as materialised event slices.
func Encode(w io.Writer, name string, cpus [][]Event) error {
	return EncodeSet(w, BufferSet(name, cpus))
}

// EncodeSet drains every source in the set and encodes the result, one CPU
// at a time. The sources are consumed; use Buffers (and Rewind) if the
// trace is needed again afterwards. Each CPU stops at its first End, as
// every Source does.
func EncodeSet(w io.Writer, set *Set) error {
	bw := bufio.NewWriter(w)
	// bufio.Writer errors are sticky: a failed Write surfaces in Flush.
	hdr := append([]byte(codecMagic), codecVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(set.Name)))
	hdr = append(hdr, set.Name...)
	hdr = binary.AppendUvarint(hdr, uint64(set.NCPU()))
	bw.Write(hdr)
	for _, src := range set.Sources {
		var c Compact
		for {
			ev, ok := src.Next()
			if !ok {
				break
			}
			if !ev.Kind.Valid() {
				return fmt.Errorf("trace: cannot encode invalid event kind %d", ev.Kind)
			}
			c.Add(ev)
			if ev.Kind == KindEnd {
				break
			}
		}
		bw.Write(binary.AppendUvarint(nil, uint64(len(c.buf))))
		bw.Write(c.buf)
	}
	return bw.Flush()
}

// Decode parses a trace container produced by Encode into per-CPU event
// slices. It checks the container's structure only; DecodeSet also checks
// that the machine can run the trace.
func Decode(r io.Reader) (name string, cpus [][]Event, err error) {
	set, err := decode(r)
	if err != nil {
		return "", nil, err
	}
	cpus = make([][]Event, set.NCPU())
	for i, src := range set.Sources {
		cpus[i] = Drain(src)
	}
	return set.Name, cpus, nil
}

// DecodeSet parses a container into a Set of compact sources that replay
// the stored records in place, and refuses a trace that Validate rejects,
// so every set it returns is one the machine can run.
func DecodeSet(r io.Reader) (*Set, error) {
	set, err := decode(r)
	if err != nil {
		return nil, err
	}
	probe, err := set.Clone()
	if err != nil {
		return nil, err
	}
	if err := validate(probe.Sources); err != nil {
		return nil, fmt.Errorf("trace %q cannot run: %w", set.Name, err)
	}
	return set, nil
}

func decode(r io.Reader) (*Set, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(magic) != codecMagic {
		return nil, ErrBadMagic
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, corrupt(err)
	}
	if version != codecVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, version, codecVersion)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, corrupt(err)
	}
	if nameLen > 1<<20 {
		return nil, fmt.Errorf("%w: unreasonable name length %d", ErrCorrupt, nameLen)
	}
	name, err := readN(br, nameLen)
	if err != nil {
		return nil, err
	}
	ncpu, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, corrupt(err)
	}
	if ncpu > 1<<16 {
		return nil, fmt.Errorf("%w: unreasonable CPU count %d", ErrCorrupt, ncpu)
	}
	var cpus []*Compact
	for i := uint64(0); i < ncpu; i++ {
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, corrupt(err)
		}
		buf, err := readN(br, size)
		if err != nil {
			return nil, err
		}
		c, err := walkRecords(buf)
		if err != nil {
			return nil, fmt.Errorf("%w: cpu %d: %v", ErrCorrupt, i, err)
		}
		cpus = append(cpus, c)
	}
	return CompactSet(string(name), cpus), nil
}

// readN reads exactly n bytes from r. The buffer grows with the data
// actually read, so a corrupt length field cannot force a large
// allocation; the result is then copied to its exact size.
func readN(r io.Reader, n uint64) ([]byte, error) {
	if n > math.MaxInt64 {
		return nil, fmt.Errorf("%w: unreasonable length %d", ErrCorrupt, n)
	}
	buf, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, corrupt(err)
	}
	if uint64(len(buf)) != n {
		return nil, corrupt(io.ErrUnexpectedEOF)
	}
	return append([]byte(nil), buf...), nil
}

// walkRecords checks one CPU's stored records before any cursor decodes
// them, since CompactSource.Next trusts its buffer: every varint ends
// inside the stream and fits its 32-bit field, and no record follows an
// End. It returns the records as a Compact with its event count and
// address predictors set, as if they had been appended with Add.
func walkRecords(buf []byte) (*Compact, error) {
	c := &Compact{buf: buf}
	field := func(pos int) (uint32, int, error) {
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 || v > math.MaxUint32 {
			return 0, 0, fmt.Errorf("bad varint at byte %d", pos)
		}
		return uint32(v), pos + n, nil
	}
	for pos := 0; pos < len(buf); c.n++ {
		h := buf[pos]
		pos++
		var err error
		if h>>3 == argEscape {
			if _, pos, err = field(pos); err != nil {
				return nil, err
			}
		}
		var d uint32
		switch Kind(h & 7) {
		case KindIFetch:
			if d, pos, err = field(pos); err != nil {
				return nil, err
			}
			c.code += d>>1 ^ -(d & 1)
		case KindRead, KindWrite, KindLock, KindUnlock:
			if d, pos, err = field(pos); err != nil {
				return nil, err
			}
			c.data += d>>1 ^ -(d & 1)
		case KindEnd:
			if pos < len(buf) {
				return nil, fmt.Errorf("record after end at byte %d", pos)
			}
		}
	}
	return c, nil
}

func corrupt(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: unexpected end of data", ErrCorrupt)
	}
	return fmt.Errorf("%w: %v", ErrCorrupt, err)
}
