// Customtrace shows the library as a general lock-behaviour laboratory:
// build your own multiprocessor trace with the event API and measure how
// the two lock implementations handle it. The synthetic program here is
// the classic high-contention microbenchmark the earlier literature used
// (Anderson; Graunke & Thakkar): every processor hammers one lock around a
// short critical section.
//
//	go run ./examples/customtrace [-ncpu 12] [-cs 30] [-iters 400]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"syncsim"
)

func main() {
	ncpu := flag.Int("ncpu", 12, "processors")
	cs := flag.Uint("cs", 30, "critical-section cycles")
	outside := flag.Uint("outside", 60, "cycles between acquisitions")
	iters := flag.Int("iters", 400, "acquisitions per processor")
	flag.Parse()

	const (
		lockID   = 0
		lockAddr = 0xF0000000 // any address works; this mirrors the suite's layout
		counter  = 0x80000000 // shared word updated inside the section
	)

	// Build one identical trace per processor: lock, touch the shared
	// counter, compute, unlock, compute outside.
	cpus := make([][]syncsim.Event, *ncpu)
	for cpu := range cpus {
		var evs []syncsim.Event
		for i := 0; i < *iters; i++ {
			evs = append(evs,
				syncsim.Lock(lockID, lockAddr),
				syncsim.Read(counter),
				syncsim.Exec(uint32(*cs)),
				syncsim.Write(counter),
				syncsim.Unlock(lockID, lockAddr),
				syncsim.Exec(uint32(*outside)),
			)
		}
		cpus[cpu] = evs
	}

	for _, alg := range []syncsim.LockAlgorithm{syncsim.QueueLocks, syncsim.QueueLocksExact, syncsim.TestTestSet, syncsim.TestSetBackoff} {
		cfg := syncsim.DefaultMachineConfig()
		cfg.Lock = alg
		set := syncsim.BufferTraceSet("hammer", cpus)
		res, err := syncsim.SimulateCtx(context.Background(), set, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s run-time %9d cycles, util %5.1f%%, waiters %.2f, transfer %5.1f cycles, bus %4.1f%%\n",
			alg, res.RunTime, 100*res.AvgUtilization(),
			res.Locks.AvgWaitersAtTransfer(), res.Locks.AvgTransferTime(),
			100*res.BusUtilization())
	}
	fmt.Println("\nWith every processor spinning on one lock, the queuing scheme's")
	fmt.Println("constant-time hand-off beats test&test&set's invalidation flurry —")
	fmt.Println("the effect the paper quantifies on real programs instead.")
}
