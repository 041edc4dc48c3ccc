// Command sweep produces parameter-sweep series (CSV) from the simulator:
// vary the processor count, the lock algorithm, the memory latency or the
// cache-bus buffer depth for one benchmark and print one row per point.
// This is the harness for figure-style plots the paper's discussion asks
// for (scalability of the lock schemes, weak ordering vs miss penalty).
//
// Sweep points run concurrently on the experiment engine: machine-config
// sweeps (lock, memlat, bufdepth) generate the benchmark trace once and
// replay it at every point via the trace cache; -metrics reports the
// cache hit rate, per-phase times and worker occupancy as CSV comments.
//
// Usage:
//
//	sweep -bench Grav -param ncpu -values 2,4,6,8,10,12 [-lock queue] [-scale 0.1]
//	sweep -bench Qsort -param memlat -values 3,6,12,24 -cons wo
//	sweep -bench Grav -param lock -values queue,queue-exact,tts,tts-backoff
//	sweep -bench Qsort -param bufdepth -values 1,2,4,8 -cons wo -metrics [-j 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"syncsim/internal/engine"
	"syncsim/internal/locks"
	"syncsim/internal/machine"
	"syncsim/internal/workload"
	"syncsim/internal/workload/suite"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "Grav", "benchmark name")
	param := fs.String("param", "ncpu", "swept parameter: ncpu, lock, memlat, bufdepth")
	values := fs.String("values", "", "comma-separated sweep values")
	lock := fs.String("lock", "queue", "lock algorithm (fixed unless swept)")
	cons := fs.String("cons", "sc", "consistency model: sc or wo")
	scale := fs.Float64("scale", 0.1, "workload scale")
	seed := fs.Int64("seed", 1, "generation seed")
	workers := fs.Int("j", 0, "concurrent sweep points (0 = GOMAXPROCS)")
	showMetrics := fs.Bool("metrics", false, "append the engine report as CSV comments")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *values == "" {
		return fmt.Errorf("need -values")
	}
	b, err := suite.ByName(*bench)
	if err != nil {
		return err
	}

	baseCfg := machine.DefaultConfig()
	if baseCfg.Lock, err = locks.ParseAlgorithm(*lock); err != nil {
		return err
	}
	if baseCfg.Consistency, err = machine.ParseConsistency(*cons); err != nil {
		return err
	}

	var (
		tasks  []engine.Task
		labels []string
	)
	for _, v := range strings.Split(*values, ",") {
		v = strings.TrimSpace(v)
		cfg := baseCfg
		params := workload.Params{Scale: *scale, Seed: *seed}
		switch *param {
		case "ncpu":
			if params.NCPU, err = strconv.Atoi(v); err != nil {
				return err
			}
		case "lock":
			if cfg.Lock, err = locks.ParseAlgorithm(v); err != nil {
				return err
			}
		case "memlat":
			if cfg.Memory.AccessTime, err = strconv.ParseUint(v, 10, 64); err != nil {
				return err
			}
		case "bufdepth":
			if cfg.BufDepth, err = strconv.Atoi(v); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown sweep parameter %q", *param)
		}
		tasks = append(tasks, engine.Task{
			Program: b.Program, Params: params, Label: v, Config: cfg,
		})
		labels = append(labels, v)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eng := engine.New(engine.Config{Workers: *workers})
	results, report, err := eng.Run(ctx, tasks)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "# %s sweep of %s (scale %g, lock %v, %v)\n",
		*param, *bench, *scale, baseCfg.Lock, baseCfg.Consistency)
	fmt.Fprintln(stdout, "value,runtime_cycles,utilization_pct,lock_stall_pct,waiters,xfer_cycles,bus_pct")
	for i, r := range results {
		res := r.Result
		_, lockPct, _ := res.StallBreakdown()
		fmt.Fprintf(stdout, "%s,%d,%.2f,%.2f,%.3f,%.2f,%.2f\n",
			labels[i], res.RunTime, 100*res.AvgUtilization(), lockPct,
			res.Locks.AvgWaitersAtTransfer(), res.Locks.AvgTransferTime(),
			100*res.BusUtilization())
	}
	if *showMetrics {
		for _, line := range strings.Split(report.String(), "\n") {
			fmt.Fprintln(stdout, "# "+line)
		}
	}
	return nil
}
