// Weakordering reproduces the paper's §4 question: does relaxing the
// memory model from sequential consistency to weak ordering pay off on a
// shared-bus machine? (The paper's answer: no — under 1% on every
// benchmark, because the only benefit is write-miss bypassing and there is
// almost never an uncompleted shared access at a synchronisation point.)
//
//	go run ./examples/weakordering [-scale 0.1]
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

	fmt.Println("Sequential consistency vs weak ordering (paper Table 7: all diffs < 1%)")
	fmt.Println()
	fmt.Printf("%-9s %12s %12s %8s %10s\n", "program", "SC cycles", "WO cycles", "diff %", "write-hit%")
	for _, bench := range syncsim.Benchmarks() {
		out, err := syncsim.RunBenchmarkCtx(context.Background(), bench,
			syncsim.WithScale(*scale),
			syncsim.WithSeed(1),
			syncsim.WithModels(syncsim.ModelQueue, syncsim.ModelWO),
		)
		if err != nil {
			log.Fatal(err)
		}
		sc := out.Results[syncsim.ModelQueue]
		wo := out.Results[syncsim.ModelWO]
		diff := 100 * (float64(sc.RunTime) - float64(wo.RunTime)) / float64(sc.RunTime)
		fmt.Printf("%-9s %12d %12d %8.2f %9.1f%%\n",
			out.Name, sc.RunTime, wo.RunTime, diff, 100*wo.WriteHitRatio())
	}
	fmt.Println("\nPositive diff = weak ordering faster. The paper concludes the")
	fmt.Println("hardware cost (lockup-free caches, deeper buffers) is not justified")
	fmt.Println("on this class of machine.")
}
