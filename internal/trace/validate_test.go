package trace

import (
	"strings"
	"testing"
)

func TestValidateAcceptsWellFormed(t *testing.T) {
	cpus := [][]Event{
		{Exec(10), Lock(0, 0x40), Exec(5), Unlock(0, 0x40), Barrier(0)},
		{Exec(20), Barrier(0)},
	}
	if err := Validate(cpus); err != nil {
		t.Fatalf("Validate rejected well-formed trace: %v", err)
	}
}

// A zero-length burst is well formed: every run loop rounds it up to a cycle.
func TestValidateAcceptsZeroExec(t *testing.T) {
	for _, cpus := range [][][]Event{
		{{Exec(0)}},
		{{Exec(10), Barrier(0)}, {Exec(20), Barrier(0), Exec(0)}},
	} {
		if err := Validate(cpus); err != nil {
			t.Fatalf("Validate(%v) = %v", cpus, err)
		}
	}
}

func TestValidateNestedLocks(t *testing.T) {
	cpus := [][]Event{{
		Lock(0, 0x40), Lock(1, 0x80), Unlock(1, 0x80), Unlock(0, 0x40),
	}}
	if err := Validate(cpus); err != nil {
		t.Fatalf("Validate rejected nested locks: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		cpus    [][]Event
		wantSub string
	}{
		{
			"invalid kind",
			[][]Event{{{Kind: 99}}},
			"invalid kind",
		},
		{
			"unmatched unlock",
			[][]Event{{Unlock(3, 0x40)}},
			"not held",
		},
		{
			"double acquire",
			[][]Event{{Lock(0, 0x40), Lock(0, 0x40)}},
			"self-deadlock",
		},
		{
			"lock leaked at end",
			[][]Event{{Lock(0, 0x40), Exec(1)}},
			"still held",
		},
		{
			"lock held at end event",
			[][]Event{{Lock(0, 0x40), End(), Unlock(0, 0x40)}},
			"still held",
		},
		{
			"barrier joined after end event",
			[][]Event{{End(), Barrier(0)}, {Barrier(0)}},
			"deadlock",
		},
		{
			"lock address drift",
			[][]Event{{Lock(0, 0x40), Unlock(0, 0x40), Lock(0, 0x44), Unlock(0, 0x44)}},
			"address changed",
		},
		{
			"uneven barrier joins",
			[][]Event{{Barrier(0)}, {Exec(1)}},
			"deadlock",
		},
		{
			"barrier count mismatch",
			[][]Event{{Barrier(0), Barrier(0)}, {Barrier(0)}},
			"deadlock",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Validate(c.cpus)
			if err == nil {
				t.Fatal("Validate accepted malformed trace")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestValidateReportsMultipleErrors(t *testing.T) {
	cpus := [][]Event{{Lock(2, 0x80), Unlock(1, 0x40)}}
	err := Validate(cpus)
	if err == nil {
		t.Fatal("Validate accepted malformed trace")
	}
	msg := err.Error()
	if !strings.Contains(msg, "still held") || !strings.Contains(msg, "not held") {
		t.Fatalf("expected both violations in %q", msg)
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := Validate(nil); err != nil {
		t.Fatalf("Validate(nil) = %v", err)
	}
	if err := Validate([][]Event{{}, {}}); err != nil {
		t.Fatalf("Validate(empty cpus) = %v", err)
	}
}
