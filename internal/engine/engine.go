// Package engine is the concurrent experiment scheduler underneath
// core.RunSuiteCtx: it executes a matrix of (workload × machine-config)
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
}

// TaskResult is one task's output.
type TaskResult struct {
	// Ideal is the trace's ideal statistics (always computed; it is
	// memoised with the trace).
	Ideal trace.Summary
	// Result is the simulation outcome; nil for IdealOnly tasks.
	Result *machine.Result
	// Report is the per-run phase breakdown.
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
		report.Add(results[i].Report)
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
// then simulation unless the task is ideal-only. The result carries the
// task's report.
func (e *Engine) runTask(ctx context.Context, t *Task) (TaskResult, error) {
	if err := ctx.Err(); err != nil {
		return TaskResult{}, err
	}
	if e.chaos.Should(chaos.WorkerPanic) {
		panic(fmt.Sprintf("chaos: injected worker panic (%s/%s)", t.Program.Name(), t.Label))
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
	r := &out.Report
	r.Generate, r.Analyze, r.Runs = info.Generate, info.Analyze, 1
	if info.Hit {
		r.CacheHits = 1
	}
	if !t.IdealOnly {
		e.progressf("%s: simulating %s", t.Program.Name(), t.Label)
		simStart := time.Now()
		res, err := machine.RunCtx(ctx, set, t.Config)
		if err != nil {
			return TaskResult{}, err
		}
		r.Simulate = time.Since(simStart)
		r.SimCycles = res.RunTime
		r.SchedIters, r.SchedSteps = res.Sched.Iterations, res.Sched.Steps
		r.SchedLeasedSteps, r.SchedRollbacks = res.Sched.LeasedSteps, res.Sched.Rollbacks
		out.Result = res
	}
	r.Wall = time.Since(wallStart)
	return out, nil
}
