// Package syncsim reproduces Baer & Zucker, "On Synchronization Patterns
// in Parallel Programs" (Univ. of Washington TR 91-04-01 / ICPP 1991): a
// trace-driven simulation study of lock behaviour in parallel programs on
// a shared-bus multiprocessor.
//
// The package is the public face of the library. It re-exports:
//
//   - the trace model (Event, Source, TraceSet, AnalyzeIdeal);
//   - the cycle-level machine simulator (MachineConfig, SimulateCtx,
//     MachineResult) with its Illinois-protocol caches, split-transaction
//     bus, buffered memory, queuing-lock and test&test&set protocols, and
//     sequential / weakly ordered consistency models;
//   - the six benchmark workload generators calibrated to the paper's
//     Tables 1-2 (Grav, Pdsa, FullConn, Pverify, Qsort, Topopt);
//   - the experiment driver and table renderers that regenerate the
//     paper's Tables 1-8.
//
// Quick start:
//
//	outs, err := syncsim.RunSuiteCtx(ctx, syncsim.WithScale(0.1))
//	if err != nil { ... }
//	fmt.Println(syncsim.AllTables(outs))
//
// Suite runs execute on a concurrent experiment engine: the (benchmark ×
// model) matrix is scheduled over a bounded worker pool, generated traces
// are memoised so every model replays the same trace, and runs are
// cancellable through the context. Every Outcome carries its RunReport.
package syncsim

import (
	"context"

	"syncsim/internal/bus"
	"syncsim/internal/cache"
	"syncsim/internal/core"
	"syncsim/internal/locks"
	"syncsim/internal/machine"
	"syncsim/internal/metrics"
	"syncsim/internal/stats"
	"syncsim/internal/tables"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
	"syncsim/internal/workload/addr"
	"syncsim/internal/workload/suite"
)

// Trace model.
type (
	// Event is one entry of a per-processor trace.
	Event = trace.Event
	// EventKind identifies an event's type.
	EventKind = trace.Kind
	// Source streams one processor's trace events.
	Source = trace.Source
	// TraceSet is a complete multi-processor trace.
	TraceSet = trace.Set
	// IdealSummary is a program's per-processor ideal statistics
	// (the paper's Tables 1-2 rows).
	IdealSummary = trace.Summary
)

// Event constructors and kinds.
var (
	Exec    = trace.Exec
	IFetch  = trace.IFetch
	Read    = trace.Read
	Write   = trace.Write
	Lock    = trace.Lock
	Unlock  = trace.Unlock
	Barrier = trace.Barrier
)

// Event kinds.
const (
	KindExec    = trace.KindExec
	KindIFetch  = trace.KindIFetch
	KindRead    = trace.KindRead
	KindWrite   = trace.KindWrite
	KindLock    = trace.KindLock
	KindUnlock  = trace.KindUnlock
	KindBarrier = trace.KindBarrier
)

// BufferTraceSet materialises per-CPU event slices into a replayable set.
func BufferTraceSet(name string, cpus [][]Event) *TraceSet {
	return trace.BufferSet(name, cpus)
}

// AnalyzeIdeal computes a trace's ideal statistics with the standard
// shared-address classifier.
func AnalyzeIdeal(set *TraceSet) IdealSummary {
	return trace.AnalyzeIdeal(set, addr.Shared).Summarize()
}

// Machine simulation.
type (
	// MachineConfig assembles the simulated architecture's parameters.
	MachineConfig = machine.Config
	// MachineResult is the outcome of one simulation run.
	MachineResult = machine.Result
	// CPUResult is one processor's share of a result.
	CPUResult = machine.CPUResult
	// CacheConfig is the cache geometry.
	CacheConfig = cache.Config
	// BusTiming is the bus occupancy parameters.
	BusTiming = bus.Timing
	// LockAlgorithm selects queuing locks or test&test&set.
	LockAlgorithm = locks.Algorithm
	// Consistency selects the memory model.
	Consistency = machine.Consistency
)

// Machine configuration constants.
const (
	// QueueLocks is the efficient queuing-lock scheme (Graunke-Thakkar).
	QueueLocks = locks.Queue
	// TestTestSet is the conventional test&test&set scheme.
	TestTestSet = locks.TTS
	// QueueLocksExact is the true Graunke-Thakkar protocol with the two
	// bus transactions the paper's approximation omits (its §2.4 open
	// question).
	QueueLocksExact = locks.QueueExact
	// TestSetBackoff is test&set with bounded exponential backoff
	// (Anderson's alternative).
	TestSetBackoff = locks.TTSBackoff
	// SeqConsistent is the sequentially consistent memory model.
	SeqConsistent = machine.SeqConsistent
	// WeakOrdering is the weakly ordered memory model.
	WeakOrdering = machine.WeakOrdering
)

// DefaultMachineConfig returns the paper's architecture (§2.2): 64 KB
// two-way write-back caches with 16-byte lines, Illinois coherence,
// 4-entry cache-bus buffers, split-transaction bus, 3-cycle memory.
func DefaultMachineConfig() MachineConfig { return machine.DefaultConfig() }

// ErrLockMisuse is wrapped into the error a simulation returns when a
// processor's trace releases a lock it does not hold or acquires one it
// already holds; test with errors.Is.
var ErrLockMisuse = machine.ErrLockMisuse

// SimulateCtx runs a trace set on a machine, polling ctx at a coarse
// interval so long simulations can be cancelled or deadlined.
func SimulateCtx(ctx context.Context, set *TraceSet, cfg MachineConfig) (*MachineResult, error) {
	return machine.RunCtx(ctx, set, cfg)
}

// Workloads.
type (
	// WorkloadParams parameterises benchmark generation.
	WorkloadParams = workload.Params
	// Workload is one benchmark generator.
	Workload = workload.Program
	// Benchmark couples a generator with its published statistics.
	Benchmark = suite.Benchmark
	// PaperIdeal is a benchmark's published Tables 1-2 row.
	PaperIdeal = suite.Ideal
)

// Benchmarks returns the paper's six-benchmark suite in table order.
func Benchmarks() []Benchmark { return suite.All() }

// BenchmarkByName looks a benchmark up by its paper name.
func BenchmarkByName(name string) (Benchmark, error) { return suite.ByName(name) }

// SharedAddr reports whether a data address is in the shared heap under
// the standard workload address-space layout.
func SharedAddr(a uint32) bool { return addr.Shared(a) }

// Experiments.
type (
	// Options configures a suite run.
	Options = core.Options
	// Option is a functional option for RunSuiteCtx / RunBenchmarkCtx.
	Option = core.Option
	// Model names one of the paper's three machine configurations.
	Model = core.Model
	// Outcome is one benchmark's measurements.
	Outcome = core.Outcome
	// Decomposition is the §3.2 T&T&S slowdown decomposition.
	Decomposition = stats.Decomposition
	// Selection is a validated benchmark subset (zero value = all).
	Selection = suite.Selection
	// RunReport breaks down one benchmark's wall time by phase.
	RunReport = metrics.RunReport
	// SuiteReport summarises a whole engine run (phase times, trace-cache
	// hit rate, worker occupancy, simulation throughput).
	SuiteReport = metrics.SuiteReport
)

// Functional options for RunSuiteCtx / RunBenchmarkCtx.
var (
	// WithScale sets the workload scale (1.0 = paper magnitudes).
	WithScale = core.WithScale
	// WithSeed sets the generation seed.
	WithSeed = core.WithSeed
	// WithModels selects the machine models to simulate.
	WithModels = core.WithModels
	// WithOnly restricts the run to the named benchmarks.
	WithOnly = core.WithOnly
	// WithSelection restricts the run to a validated Selection.
	WithSelection = core.WithSelection
	// WithMachine sets the base machine configuration.
	WithMachine = core.WithMachine
	// WithProgress sets the per-step progress callback.
	WithProgress = core.WithProgress
	// WithReport delivers the suite-level SuiteReport after the run.
	WithReport = core.WithReport
	// WithWorkers bounds how many simulations run concurrently.
	WithWorkers = core.WithWorkers
)

// NewSelection builds a validated benchmark subset; unknown names fail
// with ErrUnknownBenchmark.
func NewSelection(names ...string) (Selection, error) { return suite.NewSelection(names...) }

// ErrUnknownBenchmark is wrapped into errors for benchmark names that do
// not exist; test with errors.Is.
var ErrUnknownBenchmark = suite.ErrUnknownBenchmark

// Experiment models.
const (
	// ModelQueue is sequential consistency with queuing locks.
	ModelQueue = core.ModelQueue
	// ModelTTS is sequential consistency with test&test&set.
	ModelTTS = core.ModelTTS
	// ModelWO is weak ordering with queuing locks.
	ModelWO = core.ModelWO
)

// RunSuiteCtx runs the benchmark suite on the concurrent experiment
// engine. Cancelling ctx aborts in-flight simulations promptly.
func RunSuiteCtx(ctx context.Context, opts ...Option) ([]*Outcome, error) {
	return core.RunSuiteCtx(ctx, core.NewOptions(opts...))
}

// RunBenchmarkCtx runs a single benchmark under the selected models,
// concurrently and cancellably.
func RunBenchmarkCtx(ctx context.Context, b Benchmark, opts ...Option) (*Outcome, error) {
	return core.RunBenchmarkCtx(ctx, b, core.NewOptions(opts...))
}

// Table renderers (the paper's Tables 1-8 plus the §3.2 decomposition).
var (
	Table1       = tables.Table1
	Table2       = tables.Table2
	Table3       = tables.Table3
	Table4       = tables.Table4
	Table5       = tables.Table5
	Table6       = tables.Table6
	Table7       = tables.Table7
	Table8       = tables.Table8
	DecomposeTTS = tables.Decomposition
	AllTables    = tables.All
)
