// Scalability sweeps the processor count for one benchmark and draws an
// ASCII speed-up chart — the paper's implicit question ("assuming a program
// can be parallelized, there are still potential bottlenecks") made visible:
// the Presto programs stop scaling the moment their scheduler lock
// saturates, while the C programs keep going.
//
//	go run ./examples/scalability [-bench Grav] [-scale 0.05]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"syncsim"
)

func main() {
	bench := flag.String("bench", "Grav", "benchmark name")
	scale := flag.Float64("scale", 0.05, "workload scale")
	flag.Parse()

	b, err := syncsim.BenchmarkByName(*bench)
	if err != nil {
		log.Fatal(err)
	}

	counts := []int{1, 2, 4, 6, 8, 10, 12}
	fmt.Printf("%s speed-up vs processor count (scale %g)\n\n", *bench, *scale)

	var base float64 // single-processor throughput
	for _, n := range counts {
		set, err := b.Program.Generate(syncsim.WorkloadParams{NCPU: n, Scale: *scale, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		res, err := syncsim.SimulateCtx(context.Background(), set, syncsim.DefaultMachineConfig())
		if err != nil {
			log.Fatal(err)
		}
		// Throughput = total useful work per cycle; speed-up is relative
		// to the single-processor run.
		var work uint64
		for i := range res.CPUs {
			work += res.CPUs[i].WorkCycles
		}
		throughput := float64(work) / float64(res.RunTime)
		if n == 1 {
			base = throughput
		}
		speedup := throughput / base
		bar := strings.Repeat("█", int(speedup*4+0.5))
		fmt.Printf("%2d cpus  %5.2fx  %s\n", n, speedup, bar)
	}
	fmt.Println("\nA perfectly scaling program would add 4 blocks per row.")
}
