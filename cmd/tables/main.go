// Command tables regenerates the paper's evaluation tables (1-8) and the
// §3.2 slowdown decomposition by generating the six benchmarks and
// simulating each under the three machine models.
//
// Usage:
//
//	tables [-scale 0.2] [-seed 1] [-table N] [-only Grav,Pdsa] [-q]
//
// Extensive columns (cycle and reference counts, transfers) scale linearly
// with -scale; intensive columns (utilisation, waiters, hold times,
// percentages) are directly comparable with the paper at any scale.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"syncsim/internal/core"
	"syncsim/internal/metrics"
	"syncsim/internal/tables"
	"syncsim/internal/workload/suite"
)

func main() {
	scale := flag.Float64("scale", 0.2, "workload scale (1.0 = paper trace magnitudes)")
	seed := flag.Int64("seed", 1, "generation seed")
	table := flag.Int("table", 0, "print a single table 1-8 (0 = all)")
	decompose := flag.Bool("decompose", false, "print only the §3.2 slowdown decomposition")
	only := flag.String("only", "", "comma-separated benchmark subset")
	workers := flag.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS)")
	showMetrics := flag.Bool("metrics", false, "print the engine report to stderr after the run")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	opts := core.Options{Scale: *scale, Seed: *seed, Workers: *workers}
	if *only != "" {
		sel, err := suite.NewSelection(strings.Split(*only, ",")...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		opts.Select = sel
	}
	if !*quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *showMetrics {
		opts.OnReport = func(rep metrics.SuiteReport) {
			fmt.Fprintln(os.Stderr, rep)
		}
	}
	// Run only the models the requested output needs.
	switch {
	case *decompose:
		opts.Models = []core.Model{core.ModelQueue, core.ModelTTS}
	case *table == 1 || *table == 2:
		opts.Models = []core.Model{}
	case *table == 3 || *table == 4:
		opts.Models = []core.Model{core.ModelQueue}
	case *table == 5 || *table == 6:
		opts.Models = []core.Model{core.ModelTTS}
	case *table == 7:
		opts.Models = []core.Model{core.ModelQueue, core.ModelWO}
	case *table == 8:
		opts.Models = []core.Model{core.ModelWO}
	}
	if opts.Models != nil && len(opts.Models) == 0 {
		opts.Models = []core.Model{} // tables 1-2 need no simulation
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	outs, err := core.RunSuiteCtx(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}

	switch {
	case *decompose:
		fmt.Println(tables.Decomposition(outs))
	case *table == 0:
		fmt.Println(tables.All(outs))
	default:
		render := map[int]func([]*core.Outcome) string{
			1: tables.Table1, 2: tables.Table2, 3: tables.Table3, 4: tables.Table4,
			5: tables.Table5, 6: tables.Table6, 7: tables.Table7, 8: tables.Table8,
		}
		fn, ok := render[*table]
		if !ok {
			fmt.Fprintf(os.Stderr, "tables: no table %d (want 1-8)\n", *table)
			os.Exit(2)
		}
		fmt.Println(fn(outs))
	}
}
