// Lockstudy reproduces the paper's central comparison (§3.2): how much an
// efficient queuing-lock implementation buys over test&test&set on the
// high-contention benchmarks, and where the T&T&S slowdown comes from.
//
//	go run ./examples/lockstudy [-scale 0.1]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"syncsim"
)

func main() {
	scale := flag.Float64("scale", 0.1, "workload scale")
	flag.Parse()

	fmt.Println("Queuing locks vs Test&Test&Set (paper §3.2: Grav +8.0%, Pdsa +8.1%)")
	fmt.Println()
	for _, name := range []string{"Grav", "Pdsa", "FullConn", "Qsort"} {
		bench, err := syncsim.BenchmarkByName(name)
		if err != nil {
			log.Fatal(err)
		}
		out, err := syncsim.RunBenchmarkCtx(context.Background(), bench,
			syncsim.WithScale(*scale),
			syncsim.WithSeed(1),
			syncsim.WithModels(syncsim.ModelQueue, syncsim.ModelTTS),
		)
		if err != nil {
			log.Fatal(err)
		}
		q := out.Results[syncsim.ModelQueue]
		t := out.Results[syncsim.ModelTTS]
		dec, _ := out.Decomposition()
		tp, hp, bp := dec.Percentages()

		fmt.Printf("%-9s queue %9d cycles | tts %9d cycles | %+.1f%%\n",
			name, q.RunTime, t.RunTime, dec.SlowdownPct())
		fmt.Printf("          transfer latency %5.1f vs %4.1f cycles  (paper: 21-25 vs 1.2-1.5)\n",
			t.Locks.AvgTransferTime(), q.Locks.AvgTransferTime())
		fmt.Printf("          bus utilisation  %5.1f%% vs %4.1f%%\n",
			100*t.BusUtilization(), 100*q.BusUtilization())
		if dec.Delta > 0 {
			fmt.Printf("          slowdown breakdown: %.0f%% hand-off, %.0f%% hold inflation, %.0f%% bus\n",
				tp, hp, bp)
		}
		fmt.Println()
	}
}
