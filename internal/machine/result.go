package machine

import (
	"syncsim/internal/bus"
	"syncsim/internal/cache"
	"syncsim/internal/locks"
	"syncsim/internal/memory"
)

// CPUResult is the per-processor outcome of a run.
type CPUResult struct {
	WorkCycles   uint64 // ideal execution cycles consumed from the trace
	FinishTime   uint64 // cycle at which the processor retired its trace
	StallMiss    uint64 // cycles stalled on cache misses / full buffers
	StallLock    uint64 // cycles stalled acquiring, waiting for, releasing locks
	StallBarrier uint64 // cycles stalled at barriers
	StallDrain   uint64 // cycles stalled draining buffers at sync points (WO)
	Refs         uint64 // memory references executed
	LockOps      uint64 // lock + unlock events executed
	Cache        cache.Stats
}

// Utilization is the processor's work cycles over its completion time, the
// paper's per-processor utilisation metric.
func (r *CPUResult) Utilization() float64 {
	if r.FinishTime == 0 {
		return 1
	}
	return float64(r.WorkCycles) / float64(r.FinishTime)
}

// Result is the outcome of simulating one trace set on one machine
// configuration: everything needed to print the paper's Tables 3-8 rows.
type Result struct {
	Name        string
	Config      Config
	RunTime     uint64 // cycles until the last processor finished
	CPUs        []CPUResult
	Bus         bus.Stats
	Memory      memory.Stats
	Locks       locks.Stats
	LockDetails map[uint32]locks.LockInfo

	// LocksHeld lists the locks still owned when the run ended (normally
	// empty; the differential harness diffs it against the oracle).
	LocksHeld []uint32
	// DroppedWriteBacks counts the rare corner where a fill's internal
	// eviction found a dirty victim but the buffer was full; the
	// write-back's bus traffic is lost (documented simplification).
	DroppedWriteBacks uint64
	// BarrierEpisodes counts completed global barrier episodes.
	BarrierEpisodes uint64

	// Sched reports how much work the run loop itself did. It is
	// simulator metadata, not a simulation outcome: every scheduler
	// produces identical results above but different Sched numbers (that
	// gap is the calendar's speedup), and so does the calendar over a
	// source that cannot rewind, which runs without leases.
	Sched SchedStats
}

// SchedStats counts the run loop's own work.
type SchedStats struct {
	// Iterations is the number of simulated cycles the loop visited.
	Iterations uint64
	// Steps is the number of per-processor step calls the loop made. The
	// polling loop always makes Iterations×P of them; the calendar
	// scheduler only steps dirty or due processors.
	Steps uint64
	// LeasedSteps is the part of Steps run ahead under a lease that
	// committed; the rest were serial visits. Zero under the polling loop
	// and over sources that cannot rewind.
	LeasedSteps uint64
	// Rollbacks counts leases a conflicting snoop rolled back and
	// replayed.
	Rollbacks uint64
}

// AvgUtilization returns the mean per-processor utilisation (the paper's
// "Processor Utilization" column).
func (r *Result) AvgUtilization() float64 {
	if len(r.CPUs) == 0 {
		return 0
	}
	var sum float64
	for i := range r.CPUs {
		sum += r.CPUs[i].Utilization()
	}
	return sum / float64(len(r.CPUs))
}

// StallBreakdown returns the fraction of all stall cycles attributable to
// cache misses, lock waiting, and everything else (barriers and weak-
// ordering drains), as percentages. These are the paper's "Stall Causes"
// columns.
func (r *Result) StallBreakdown() (cachePct, lockPct, otherPct float64) {
	var miss, lock, other uint64
	for i := range r.CPUs {
		miss += r.CPUs[i].StallMiss
		lock += r.CPUs[i].StallLock
		other += r.CPUs[i].StallBarrier + r.CPUs[i].StallDrain
	}
	total := miss + lock + other
	if total == 0 {
		return 0, 0, 0
	}
	f := 100 / float64(total)
	return float64(miss) * f, float64(lock) * f, float64(other) * f
}

// WriteHitRatio aggregates the write hit ratio across all caches (Table 7's
// "Write Hit %" column).
func (r *Result) WriteHitRatio() float64 {
	var hits, total uint64
	for i := range r.CPUs {
		hits += r.CPUs[i].Cache.WriteHits
		total += r.CPUs[i].Cache.WriteHits + r.CPUs[i].Cache.WriteMisses
	}
	if total == 0 {
		return 1
	}
	return float64(hits) / float64(total)
}

// ReadHitRatio aggregates the read hit ratio across all caches.
func (r *Result) ReadHitRatio() float64 {
	var hits, total uint64
	for i := range r.CPUs {
		hits += r.CPUs[i].Cache.ReadHits
		total += r.CPUs[i].Cache.ReadHits + r.CPUs[i].Cache.ReadMisses
	}
	if total == 0 {
		return 1
	}
	return float64(hits) / float64(total)
}

// BusUtilization returns bus busy cycles over the run time.
func (r *Result) BusUtilization() float64 {
	return r.Bus.Utilization(r.RunTime)
}
