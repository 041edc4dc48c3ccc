package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"syncsim/internal/trace"
)

// readWholeGzip decodes an entire gzip stream, failing on truncation. pprof
// profiles are gzip-compressed protobufs, so a profile cut off by os.Exit
// (the old fatal() path) fails with io.ErrUnexpectedEOF here while a
// cleanly flushed one decodes end to end.
func readWholeGzip(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s is not a gzip stream (truncated profile?): %v", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: incomplete gzip stream (profile truncated): %v", path, err)
	}
	if err := zr.Close(); err != nil {
		t.Fatalf("%s: gzip checksum: %v", path, err)
	}
	if len(data) == 0 {
		t.Fatalf("%s: empty profile", path)
	}
	return data
}

// TestFailingRunStillWritesProfiles is the regression test for the
// exit-path bug: fatal() used to call os.Exit(1), skipping the deferred
// pprof.StopCPUProfile and the heap-profile write, so any error left
// truncated or missing profiles behind. run() must flush both even when
// the run itself fails.
func TestFailingRunStillWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")

	var stderr bytes.Buffer
	err := run([]string{"-bench", "NoSuchBench", "-cpuprofile", cpu, "-memprofile", mem},
		io.Discard, &stderr)
	if err == nil {
		t.Fatal("run with an unknown benchmark succeeded, want error")
	}
	if !strings.Contains(err.Error(), "NoSuchBench") {
		t.Fatalf("error %q does not mention the unknown benchmark", err)
	}
	readWholeGzip(t, cpu)
	readWholeGzip(t, mem)
}

// TestSuccessfulRunWritesProfiles keeps the happy path honest too.
func TestSuccessfulRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")

	var out bytes.Buffer
	err := run([]string{"-bench", "Qsort", "-scale", "0.01", "-cpuprofile", cpu, "-memprofile", mem},
		&out, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "run-time:") {
		t.Errorf("run output missing the run-time line:\n%s", out.String())
	}
	readWholeGzip(t, cpu)
	readWholeGzip(t, mem)
}

// TestRunUnknownFlagVariants covers the other early-error paths that used
// to os.Exit: they must now return ordinary errors.
func TestRunErrorPaths(t *testing.T) {
	// A trace whose only CPU releases a lock it never took: the machine
	// would panic on it, so loading it must fail instead.
	unlock := filepath.Join(t.TempDir(), "unlock.trc")
	var buf bytes.Buffer
	if err := trace.Encode(&buf, "unlock", [][]trace.Event{{trace.Unlock(1, 0x40), trace.End()}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(unlock, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{}, // no -bench/-trace/-arch
		{"-bench", "Grav", "-lock", "bogus"},
		{"-bench", "Grav", "-cons", "bogus"},
		{"-bench", "Grav", "-sched", "polling"}, // no CLI selects the reference loop
		{"-trace", filepath.Join(t.TempDir(), "missing.trc")},
		{"-trace", unlock},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
