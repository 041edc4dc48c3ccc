package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, name string, cpus [][]Event) (string, [][]Event) {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, name, cpus); err != nil {
		t.Fatalf("Write: %v", err)
	}
	gotName, gotCPUs, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return gotName, gotCPUs
}

func TestCodecRoundTripBasic(t *testing.T) {
	cpus := [][]Event{
		sampleEvents(),
		{Exec(100), Barrier(1), End()},
		nil,
		{Exec(1), End(), Exec(2)}, // stored up to its End, as Drain yields it
	}
	name, got := roundTrip(t, "bench", cpus)
	if name != "bench" {
		t.Errorf("name = %q, want bench", name)
	}
	if len(got) != len(cpus) {
		t.Fatalf("ncpu = %d, want %d", len(got), len(cpus))
	}
	for i := range cpus {
		if want := Drain(NewBuffer(cpus[i])); !reflect.DeepEqual(got[i], want) {
			t.Errorf("cpu %d: got %v, want %v", i, got[i], want)
		}
	}
}

func TestCodecEmptyTrace(t *testing.T) {
	name, got := roundTrip(t, "", [][]Event{})
	if name != "" || len(got) != 0 {
		t.Fatalf("got name=%q ncpu=%d, want empty", name, len(got))
	}
}

func TestCodecAddressDeltas(t *testing.T) {
	// Addresses that go forwards, backwards and wrap the 32-bit space.
	events := []Event{
		Read(0), Read(0xFFFFFFFF), Read(1), Write(0x80000000),
		IFetch(0x7FFFFFFF), Lock(5, 0x10), Unlock(5, 0x10),
	}
	_, got := roundTrip(t, "addr", [][]Event{events})
	if !reflect.DeepEqual(got[0], events) {
		t.Fatalf("got %v, want %v", got[0], events)
	}
}

func randomEvents(rng *rand.Rand, n int) []Event {
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(7) {
		case 0:
			events = append(events, Exec(uint32(rng.Intn(1000)+1)))
		case 1:
			events = append(events, IFetchAfter(uint32(rng.Intn(8)), rng.Uint32()))
		case 2:
			events = append(events, ReadAfter(uint32(rng.Intn(8)), rng.Uint32()))
		case 3:
			events = append(events, WriteAfter(uint32(rng.Intn(8)), rng.Uint32()))
		case 4:
			id := uint32(rng.Intn(16))
			events = append(events, Lock(id, id*64))
		case 5:
			id := uint32(rng.Intn(16))
			events = append(events, Unlock(id, id*64))
		case 6:
			events = append(events, Barrier(uint32(rng.Intn(4))))
		}
	}
	return events
}

func TestCodecRoundTripProperty(t *testing.T) {
	// Property: Read(Write(x)) == x for arbitrary event streams.
	check := func(seed int64, ncpu uint8, perCPU uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(ncpu%8) + 1
		cpus := make([][]Event, n)
		for i := range cpus {
			cpus[i] = randomEvents(rng, int(perCPU%512))
		}
		var buf bytes.Buffer
		if err := Encode(&buf, "prop", cpus); err != nil {
			return false
		}
		_, got, err := Decode(&buf)
		if err != nil {
			return false
		}
		for i := range cpus {
			if len(cpus[i]) != len(got[i]) {
				return false
			}
			for j := range cpus[i] {
				if cpus[i][j] != got[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: each CPU's stored bytes are exactly what Compact.Add produces
// for its events, and decoding them replays those events.
func TestCodecStoresCompactRecords(t *testing.T) {
	check := func(seed int64, ncpu uint8, perCPU uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		cpus := make([][]Event, int(ncpu%8)+1)
		for i := range cpus {
			cpus[i] = compactEvents(rng, int(perCPU%512))
		}
		var buf bytes.Buffer
		if err := Encode(&buf, "prop", cpus); err != nil {
			return false
		}
		set, err := decode(&buf)
		if err != nil || set.NCPU() != len(cpus) {
			return false
		}
		for i, src := range set.Sources {
			c := src.(*CompactSource).c
			want := compactOf(cpus[i])
			if !bytes.Equal(c.buf, want.buf) || c.Len() != want.Len() || c.code != want.code || c.data != want.data {
				return false
			}
			if !reflect.DeepEqual(Drain(src), Drain(want.NewSource())) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// DecodeSet refuses a trace the machine cannot run, while Decode still
// reads its structure.
func TestDecodeSetValidates(t *testing.T) {
	cases := map[string][][]Event{
		"unmatched unlock": {{Unlock(1, 0x40), End()}},
		"uneven barriers":  {{Exec(1), Barrier(0), End()}, {Exec(1), End()}},
	}
	for name, cpus := range cases {
		var buf bytes.Buffer
		if err := Encode(&buf, name, cpus); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		var verr *ValidationError
		if _, err := DecodeSet(&buf); !errors.As(err, &verr) {
			t.Errorf("%s: DecodeSet err = %v, want a ValidationError", name, err)
		}
	}
}

func TestCodecRejectsBadMagic(t *testing.T) {
	_, _, err := Decode(bytes.NewReader([]byte("NOPE\x01")))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestCodecRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, "x", nil); err != nil {
		t.Fatal(err)
	}
	future := buf.Bytes()
	future[4] = 99 // corrupt the version byte
	// A version-1 container: one CPU of [Exec(48), Lock(1, 0x18), Exec(48),
	// Barrier(48), End, Unlock(1, 0x30)] in the old per-event encoding.
	v1 := []byte("SSTR\x01\t000000000\x01\x06\x000\x04\x010\x000\x060\a\x05\x010")
	// A version-2 container: one CPU of [IFetchAfter(16, 0x100),
	// IFetchAfter(2, 0x104), End], as the version-2 encoder wrote it. Read
	// as version 3, its first header would be a next-word fetch.
	v2 := []byte("SSTR\x02\x02v2\x01\x06\x81\x80\x04\x11\b\a")
	for _, data := range [][]byte{future, v1, v2} {
		_, _, err := Decode(bytes.NewReader(data))
		if !errors.Is(err, ErrBadVersion) {
			t.Errorf("version %d: err = %v, want ErrBadVersion", data[4], err)
		}
	}
}

func TestCodecRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, "trunc", [][]Event{sampleEvents()}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Every strict prefix must fail cleanly, not panic or succeed.
	for cut := 0; cut < len(data); cut++ {
		_, _, err := Decode(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("Decode succeeded on %d-byte prefix of %d-byte container", cut, len(data))
		}
	}
}

// container builds a current-version container around raw per-CPU record
// bytes.
func container(cpus ...[]byte) []byte {
	data := append([]byte(codecMagic), codecVersion, 1, 'x')
	data = binary.AppendUvarint(data, uint64(len(cpus)))
	for _, records := range cpus {
		data = binary.AppendUvarint(data, uint64(len(records)))
		data = append(data, records...)
	}
	return data
}

// A CPU length far beyond the data fails as corrupt without the decoder
// allocating that length.
func TestCodecRejectsOverlongLength(t *testing.T) {
	data := container([]byte{byte(KindExec) | 1<<3})
	data = append(data[:len(data)-2], binary.AppendUvarint(nil, 1<<40)...)
	data = append(data, byte(KindExec)|1<<3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Decode(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding a 1 TiB length field allocated %d bytes", grew)
	}
}

// The record walker refuses what would send a cursor past its buffer or
// out of a 32-bit field, and records an End would hide.
func TestCodecRejectsBadRecords(t *testing.T) {
	esc := byte(argEscape << 3)
	cases := map[string][]byte{
		"unterminated argument": {byte(KindExec) | esc, 0x80},
		"missing address":       {byte(KindRead)},
		"unterminated address":  {byte(KindIFetch), 0x80, 0x80},
		"fetch missing address": {byte(KindIFetch) | (argNextWord-1)<<3},
		"argument past 32 bits": append([]byte{byte(KindBarrier) | esc}, binary.AppendUvarint(nil, 1<<32)...),
		"address past 32 bits":  append([]byte{byte(KindWrite)}, binary.AppendUvarint(nil, 1<<32)...),
		"record after end":      {byte(KindExec) | 1<<3, byte(KindEnd), byte(KindExec) | 1<<3},
	}
	if _, _, err := Decode(bytes.NewReader(container([]byte{byte(KindEnd)}))); err != nil {
		t.Fatalf("well-formed records refused: %v", err)
	}
	for name, records := range cases {
		_, _, err := Decode(bytes.NewReader(container([]byte{byte(KindEnd)}, records)))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// A stream may end in a next-word fetch, a record with no fields: the
// walker counts it and advances the fetch predictor, and it replays.
func TestCodecEndsInNextWordFetch(t *testing.T) {
	set, err := decode(bytes.NewReader(container([]byte{byte(KindIFetch) | (argNextWord+2)<<3})))
	if err != nil {
		t.Fatal(err)
	}
	c := set.Sources[0].(*CompactSource).c
	if c.Len() != 1 || c.code != 4 {
		t.Errorf("walked %d records with fetch predictor %#x, want 1 and 0x4", c.Len(), c.code)
	}
	if got, want := Drain(set.Sources[0]), []Event{IFetchAfter(2, 4)}; !reflect.DeepEqual(got, want) {
		t.Errorf("replay = %v, want %v", got, want)
	}
	events := []Event{Exec(3), IFetch(0x100), IFetchAfter(5, 0x104)}
	if _, got := roundTrip(t, "tail", [][]Event{events}); !reflect.DeepEqual(got[0], events) {
		t.Errorf("round trip = %v, want %v", got[0], events)
	}
}

func TestWriteSetReadSet(t *testing.T) {
	set := BufferSet("ws", [][]Event{sampleEvents(), {Exec(9)}})
	var buf bytes.Buffer
	if err := EncodeSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "ws" || got.NCPU() != 2 {
		t.Fatalf("got name=%q ncpu=%d", got.Name, got.NCPU())
	}
	if evs := Drain(got.Sources[0]); !reflect.DeepEqual(evs, sampleEvents()) {
		t.Fatalf("cpu0 = %v, want %v", evs, sampleEvents())
	}
}

func TestCodecCompactness(t *testing.T) {
	// Sequential ifetch addresses are next-word records: the container
	// stores one byte per event, plus its header and the opening jump.
	events := make([]Event, 0, 10000)
	addr := uint32(0x1000)
	for i := 0; i < 10000; i++ {
		events = append(events, IFetch(addr))
		addr += 4
	}
	var buf bytes.Buffer
	if err := Encode(&buf, "compact", [][]Event{events}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > len(events)+32 {
		t.Fatalf("container is %d bytes for %d events; next-word records broken?", buf.Len(), len(events))
	}
}
