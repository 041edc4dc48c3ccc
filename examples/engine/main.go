// Command engine demonstrates the library's API: functional options,
// cancellation, and the run-metrics reports from the concurrent
// experiment engine.
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"time"

	"syncsim"
)

func main() {
	// Ctrl-C cancels the run; in-flight simulations stop within a bounded
	// number of simulated cycles.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// A deadline works the same way.
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()

	outs, err := syncsim.RunSuiteCtx(ctx,
		syncsim.WithScale(0.05),
		syncsim.WithOnly("Grav", "Qsort"),
		syncsim.WithModels(syncsim.ModelQueue, syncsim.ModelTTS),
		syncsim.WithWorkers(2),
		syncsim.WithReport(func(r syncsim.SuiteReport) {
			fmt.Printf("\n%s\n", r)
		}),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	for _, out := range outs {
		fmt.Printf("\n%s: %.0f lock pairs/cpu (ideal)\n", out.Name, out.Ideal.LockPairs)
		for _, m := range []syncsim.Model{syncsim.ModelQueue, syncsim.ModelTTS} {
			res := out.Results[m]
			fmt.Printf("  %-8v run-time %9d cycles, utilization %5.1f%%\n",
				m, res.RunTime, 100*res.AvgUtilization())
		}
		fmt.Printf("  metrics: %s\n", out.Report)
	}
}
