package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode hardens the binary container parser: arbitrary bytes must
// produce an error or a valid trace, never a panic or runaway allocation.
func FuzzDecode(f *testing.F) {
	var seed bytes.Buffer
	if err := Encode(&seed, "fuzz", [][]Event{sampleEvents(), {Barrier(1), End()}}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("SSTR"))
	f.Add([]byte("SSTR\x02\x00\x02"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		name, cpus, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode must re-encode to the same events.
		var buf bytes.Buffer
		if err := Encode(&buf, name, cpus); err != nil {
			t.Fatalf("decoded trace failed to re-encode: %v", err)
		}
		name2, cpus2, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if name2 != name || !reflect.DeepEqual(cpus2, cpus) {
			t.Fatalf("round trip changed the trace: %q %v vs %q %v", name, cpus, name2, cpus2)
		}
	})
}
