// Package engine is the concurrent experiment scheduler underneath
// core.RunSuite: it executes a matrix of (workload × machine-config)
// simulation tasks on a bounded worker pool, memoises trace generation in
// a content-addressed TraceCache so identical traces are generated exactly
// once per sweep, and sums each task's per-phase metrics (generate /
// analyze / simulate wall time, cache hits, simulated cycles and scheduler
// counters) into a SuiteReport.
//
// Each task gets per-run isolation for free: the simulator mutates only
// its own cloned trace cursors and its own machine state, so tasks never
// share mutable data and results are deterministic regardless of worker
// count or scheduling order.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"syncsim/internal/chaos"
	"syncsim/internal/flight"
	"syncsim/internal/machine"
	"syncsim/internal/metrics"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
)

// Task is one schedulable unit: generate (or reuse) a workload's trace and
// replay it under one machine configuration.
type Task struct {
	// Program is the workload whose trace the task replays.
	Program workload.Program
	// Params parameterise trace generation and form the cache key
	// together with the program name.
	Params workload.Params
	// Label names the task in progress output (e.g. the model name).
	Label string
	// Config is the machine to simulate. Ignored when IdealOnly.
	Config machine.Config
	// IdealOnly skips simulation: the task only generates the trace and
	// computes ideal statistics (the paper's Tables 1-2 need no machine).
	IdealOnly bool
	// Stream pipes generation straight into the simulator through a
	// bounded ring instead of materialising the trace: memory stays
	// O(StreamBudget) instead of O(trace). The trace cache is bypassed
	// (CacheStats.Bypassed), no ideal statistics are computed (Ideal is
	// the zero Summary — AnalyzeIdeal would consume the stream), and the
	// machine steps every processor serially: a stream cannot rewind, so
	// no speculative lease is taken. Incompatible with IdealOnly.
	Stream bool
	// StreamBudget is the ring's total event budget across CPUs when
	// streaming; 0 selects workload.DefaultStreamBudget.
	StreamBudget int
	// Metrics enables the per-task RunReport in the result.
	Metrics bool
}

// TaskResult is one task's output.
type TaskResult struct {
	// Ideal is the trace's ideal statistics (always computed; it is
	// memoised with the trace).
	Ideal trace.Summary
	// Result is the simulation outcome; nil for IdealOnly tasks.
	Result *machine.Result
	// Report is the per-run phase breakdown; zero unless Task.Metrics.
	Report metrics.RunReport
}

// Config parameterises an Engine.
type Config struct {
	// Workers bounds the number of concurrently executing tasks.
	// Zero or negative selects GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one line per step. The engine
	// serialises calls, so non-reentrant callbacks are safe.
	Progress func(format string, args ...any)
	// Cache is the trace cache to use; nil creates a private one. Pass a
	// shared cache to memoise traces across several Run calls.
	Cache *TraceCache
	// Chaos, when non-nil, is the fault-injection plane consulted at the
	// engine's task boundaries (worker panic, trace decode fault). nil —
	// the production default — is permanently inert.
	Chaos *chaos.Plane
}

// Engine schedules simulation tasks over a bounded worker pool.
type Engine struct {
	workers  int
	cache    *TraceCache
	chaos    *chaos.Plane
	progress func(format string, args ...any)
	progMu   sync.Mutex
}

// New builds an engine.
func New(cfg Config) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := cfg.Cache
	if cache == nil {
		cache = NewTraceCache()
	}
	return &Engine{workers: workers, cache: cache, chaos: cfg.Chaos, progress: cfg.Progress}
}

// Cache returns the engine's trace cache.
func (e *Engine) Cache() *TraceCache { return e.cache }

// progressf emits one serialised progress line.
func (e *Engine) progressf(format string, args ...any) {
	if e.progress == nil {
		return
	}
	e.progMu.Lock()
	defer e.progMu.Unlock()
	e.progress(format, args...)
}

// Run executes every task and returns the results in task order plus a
// report of where the run's time went. On the first task error it cancels
// the remaining work, waits for in-flight tasks to drain (no goroutine
// outlives Run), and returns that error; if ctx itself was cancelled it
// returns ctx.Err(). Task execution is deterministic: a task's result
// depends only on the task, never on worker count or scheduling.
func (e *Engine) Run(ctx context.Context, tasks []Task) ([]TaskResult, metrics.SuiteReport, error) {
	start := time.Now()
	workers := e.workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	results := make([]TaskResult, len(tasks))
	feed := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				if runCtx.Err() != nil {
					continue // drain the feed without starting new work
				}
				res, err := e.runTaskSafe(runCtx, &tasks[i])
				if err != nil {
					fail(err)
					continue
				}
				results[i] = res
			}
		}()
	}
feeding:
	for i := range tasks {
		select {
		case feed <- i:
		case <-runCtx.Done():
			break feeding
		}
	}
	close(feed)
	wg.Wait()

	report := metrics.SuiteReport{Workers: workers}
	for i := range results {
		rep := results[i].Report
		if tasks[i].Stream {
			rep.Runs = 0 // a stream bypasses the trace cache: no lookup to count
		}
		report.Add(rep)
		if !tasks[i].Metrics {
			results[i].Report = metrics.RunReport{}
		}
	}
	report.Wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, report, err
	}
	if firstErr != nil {
		return nil, report, firstErr
	}
	return results, report, nil
}

// runTaskSafe is runTask behind a panic barrier: a panic anywhere in task
// execution — the machine core's invariant panics included — is recovered
// into a *flight.PanicError that fails this task alone. The worker
// goroutine, the pool, and every sibling task survive.
func (e *Engine) runTaskSafe(ctx context.Context, t *Task) (res TaskResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = TaskResult{}, flight.Recovered(t.Program.Name()+"/"+t.Label, v)
		}
	}()
	return e.runTask(ctx, t)
}

// runTask executes one task: trace lookup (generating on a cache miss),
// then simulation unless the task is ideal-only. The result always carries
// the task's report; Run drops it unless Task.Metrics.
func (e *Engine) runTask(ctx context.Context, t *Task) (TaskResult, error) {
	if err := ctx.Err(); err != nil {
		return TaskResult{}, err
	}
	if e.chaos.Should(chaos.WorkerPanic) {
		panic(fmt.Sprintf("chaos: injected worker panic (%s/%s)", t.Program.Name(), t.Label))
	}
	if t.Stream {
		return e.runStreamTask(ctx, t)
	}
	wallStart := time.Now()
	set, ideal, info, err := e.cache.Get(ctx, t.Program, t.Params, e.progressf)
	if err == nil && e.chaos.Should(chaos.DecodeFault) {
		err = fmt.Errorf("engine: %s: %w", t.Program.Name(), chaos.ErrDecode)
	}
	if err != nil {
		return TaskResult{}, err
	}

	out := TaskResult{Ideal: ideal}
	var simWall time.Duration
	if !t.IdealOnly {
		e.progressf("%s: simulating %s", t.Program.Name(), t.Label)
		simStart := time.Now()
		res, err := machine.RunCtx(ctx, set, t.Config)
		if err != nil {
			return TaskResult{}, err
		}
		simWall = time.Since(simStart)
		out.Result = res
	}
	out.Report = runReport(out.Result, simWall, wallStart)
	out.Report.Generate, out.Report.Analyze = info.Generate, info.Analyze
	if info.Hit {
		out.Report.CacheHits = 1
	}
	return out, nil
}

// runStreamTask is the streaming variant of runTask: generation and
// simulation run concurrently, coupled by a bounded ring. Nothing is
// cached and no ideal analysis happens — the events exist only in flight.
func (e *Engine) runStreamTask(ctx context.Context, t *Task) (TaskResult, error) {
	if t.IdealOnly {
		return TaskResult{}, fmt.Errorf("engine: %s/%s: Stream and IdealOnly are mutually exclusive", t.Program.Name(), t.Label)
	}
	e.cache.NoteBypass()
	e.progressf("%s: streaming %s", t.Program.Name(), t.Label)
	wallStart := time.Now()
	set, h, err := workload.StreamTraces(t.Program, t.Params, t.StreamBudget)
	if err != nil {
		return TaskResult{}, err
	}
	res, simErr := machine.RunCtx(ctx, set, t.Config)
	if simErr != nil {
		h.Abort()
		return TaskResult{}, simErr
	}
	// A generation failure truncates the stream: the machine then finishes
	// "successfully" over a partial trace, so the producer's error must
	// override the simulation result.
	if err := h.Wait(); err != nil {
		return TaskResult{}, fmt.Errorf("engine: generate %s: %w", t.Program.Name(), err)
	}
	// Generation runs inside the simulation here, so its time is simulate
	// time. A stream cannot rewind, so the lease counters stay zero.
	return TaskResult{Result: res, Report: runReport(res, time.Since(wallStart), wallStart)}, nil
}

// runReport starts one task's report: a single run, its simulation time,
// its wall time since wallStart, and the machine's cycle and scheduler
// counters (zero for an ideal-only task, whose res is nil).
func runReport(res *machine.Result, simulate time.Duration, wallStart time.Time) metrics.RunReport {
	r := metrics.RunReport{Simulate: simulate, Wall: time.Since(wallStart), Runs: 1}
	if res != nil {
		r.SimCycles = res.RunTime
		r.SchedIters, r.SchedSteps = res.Sched.Iterations, res.Sched.Steps
		r.SchedLeasedSteps, r.SchedRollbacks = res.Sched.LeasedSteps, res.Sched.Rollbacks
	}
	return r
}
