package trace

import (
	"bytes"
	"testing"
)

func TestWriteTextGolden(t *testing.T) {
	cpus := [][]Event{sampleEvents(), {ReadAfter(4, 0x10), Barrier(2), End()}}
	var buf bytes.Buffer
	if err := WriteText(&buf, "prog", cpus); err != nil {
		t.Fatal(err)
	}
	const want = `trace prog 2
cpu 0
exec 3
ifetch 0x1000
read 0x2000
lock 0 0x9000
exec 5
write 0x2004
unlock 0 0x9000
exec 1
cpu 1
read 0x10 4
barrier 2
end
`
	if got := buf.String(); got != want {
		t.Fatalf("WriteText =\n%s\nwant\n%s", got, want)
	}
}

func TestWriteTextSanitizesName(t *testing.T) {
	cases := map[string]string{
		"":          "unnamed",
		"my prog":   "my_prog",
		"a\tb\nc":   "a_b_c",
		"Qsort":     "Qsort",
		"  spaced ": "spaced",
	}
	for in, want := range cases {
		var buf bytes.Buffer
		if err := WriteText(&buf, in, nil); err != nil {
			t.Fatal(err)
		}
		if got, line := buf.String(), "trace "+want+" 0\n"; got != line {
			t.Errorf("name %q wrote %q, want %q", in, got, line)
		}
	}
}
