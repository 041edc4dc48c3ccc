package main

import (
	"io"
	"strings"
	"testing"
)

func TestRunRejectsUnknownNames(t *testing.T) {
	base := []string{"-bench", "Qsort", "-param", "ncpu", "-values", "2", "-scale", "0.01"}
	for _, flag := range []string{"-cons", "-lock", "-param"} {
		args := append(append([]string(nil), base...), flag, "bogus")
		err := run(args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Errorf("run(%v) = %v, want an error naming the bogus value", args, err)
		}
	}
}
