package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Text trace format: a human-readable dump for debugging (tracegen -text).
// Nothing reads it back; the binary container is the one stored form.
//
//	trace <name> <ncpu>
//	cpu <n>
//	exec <cycles>
//	ifetch <addr> [pre-cycles]
//	read <addr> [pre-cycles]
//	write <addr> [pre-cycles]
//	lock <id> <addr>
//	unlock <id> <addr>
//	barrier <id>
//	end
//
// Addresses are written in 0x-prefixed hex.

// WriteText encodes a multi-processor trace in the human-readable text
// format. The name is sanitised to a single whitespace-free token so each
// line stays whitespace-delimited (the binary container preserves names
// exactly).
func WriteText(w io.Writer, name string, cpus [][]Event) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "trace %s %d\n", sanitizeName(name), len(cpus))
	for i, events := range cpus {
		fmt.Fprintf(bw, "cpu %d\n", i)
		for _, ev := range events {
			fmt.Fprintln(bw, ev.String())
		}
	}
	return bw.Flush()
}

// sanitizeName makes a trace name representable in the whitespace-delimited
// text format.
func sanitizeName(name string) string {
	name = strings.Join(strings.Fields(name), "_")
	if name == "" {
		return "unnamed"
	}
	return name
}
