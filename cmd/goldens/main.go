// Command goldens maintains the committed golden-results corpus: small-scale
// regression snapshots of the metrics behind the paper's Tables 1-8, one
// JSON file per benchmark covering all three machine models.
//
// Usage:
//
//	goldens              # verify: recompute and diff against the corpus; exit 1 on drift
//	goldens -update      # regenerate the corpus (reviewed drift approval)
//	goldens -only Grav   # restrict to a benchmark subset
//
// Besides one file per benchmark at -scale/-seed, the corpus holds the
// fixed wide cells of check.WideCells (Grav and Topopt past 64 CPUs, at
// their own scales); -only selects those by benchmark too.
//
// CI runs the verify mode, so any change to simulated results must land
// together with a regenerated corpus — unapproved drift fails the build.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"syncsim/internal/check"
)

// errDrift marks a verify-mode mismatch; main maps it to exit code 1 after
// every deferred cleanup has run (os.Exit inside run would skip them).
var errDrift = errors.New("drift detected; review and rerun with -update to approve")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "goldens: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("goldens", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "internal/check/testdata/goldens", "corpus directory")
	update := fs.Bool("update", false, "regenerate the corpus instead of verifying it")
	scale := fs.Float64("scale", check.GoldenScale, "workload scale")
	seed := fs.Int64("seed", check.GoldenSeed, "generation seed")
	only := fs.String("only", "", "comma-separated benchmark subset")
	workers := fs.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	entries, err := check.Corpus(ctx, *scale, *seed, names, *workers)
	if err != nil {
		return err
	}

	if *update {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return err
		}
		for _, e := range entries {
			path := filepath.Join(*dir, e.File)
			if err := check.Save(path, e.Golden); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
		return nil
	}

	drifted := false
	for _, e := range entries {
		path := filepath.Join(*dir, e.File)
		want, err := check.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "goldens: %s: %v (run with -update to create)\n", e.Label, err)
			drifted = true
			continue
		}
		diffs := check.Compare(e.Golden, want)
		if len(diffs) == 0 {
			fmt.Fprintf(stdout, "ok   %s\n", e.Label)
			continue
		}
		drifted = true
		fmt.Fprintf(stderr, "DRIFT %s:\n", e.Label)
		for _, d := range diffs {
			fmt.Fprintf(stderr, "  %s\n", d)
		}
	}
	if drifted {
		return errDrift
	}
	return nil
}
