package server

import (
	"fmt"
	"strings"

	"syncsim/internal/api"
	"syncsim/internal/engine"
	"syncsim/internal/locks"
	"syncsim/internal/machine"
	"syncsim/internal/replay"
	"syncsim/internal/workload"
	"syncsim/internal/workload/suite"
)

// defaultScale keeps an omitted scale small: the service is meant for
// interactive repeated queries, and scale 1.0 runs take minutes of CPU.
// Clients reproducing paper magnitudes ask for them explicitly.
const defaultScale = 0.2

// simJob is a validated, canonicalised SimRequest ready to execute. Its
// key is what coalescing and the result cache operate on: two requests
// with the same key are guaranteed byte-identical traces (the engine.Key
// contract) simulated under identical machine configs, hence identical
// results.
type simJob struct {
	req    api.SimRequest // canonicalised copy, echoed in responses
	prog   workload.Program
	params workload.Params
	cfg    machine.Config
	key    string
}

// normalizeSim validates a request and resolves it to a runnable job.
func normalizeSim(req api.SimRequest) (simJob, error) {
	if req.Bench == "" {
		return simJob{}, fmt.Errorf("missing bench (one of %v)", suite.Names())
	}
	b, err := suite.ByName(req.Bench)
	if err != nil {
		return simJob{}, err
	}
	if req.Scale == 0 {
		req.Scale = defaultScale
	}
	if req.Scale < 0 {
		return simJob{}, fmt.Errorf("negative scale %v", req.Scale)
	}
	if req.NCPU < 0 {
		return simJob{}, fmt.Errorf("negative ncpu %d", req.NCPU)
	}

	cfg := machine.DefaultConfig()
	if req.Lock == "" {
		req.Lock = locks.Queue.String()
	}
	if cfg.Lock, err = locks.ParseAlgorithm(req.Lock); err != nil {
		return simJob{}, err
	}
	if req.Cons == "" {
		req.Cons = machine.SeqConsistent.String()
	}
	if cfg.Consistency, err = machine.ParseConsistency(req.Cons); err != nil {
		return simJob{}, err
	}
	switch req.Sched {
	case "", "calendar", "parallel": // "parallel": the calendar's former name
		req.Sched = machine.SchedCalendar.String()
	default:
		return simJob{}, fmt.Errorf("unknown sched %q (want calendar)", req.Sched)
	}
	// "workers" once sized the calendar's speculation pool. Like the
	// "parallel" alias it is accepted and ignored: any non-negative count
	// is served, keyed and echoed as 0.
	if req.Workers < 0 {
		return simJob{}, fmt.Errorf("negative workers %d", req.Workers)
	}
	req.Workers = 0
	cfg.Check = req.Check

	params := workload.Params{NCPU: req.NCPU, Scale: req.Scale, Seed: req.Seed}
	// Key like engine.KeyFor: the trace-determining parameters,
	// canonicalised so equivalent spellings coalesce, extended with the
	// result-determining machine knobs.
	k := engine.KeyFor(b.Program, params)
	req.Bench = k.Workload
	req.NCPU = k.NCPU
	req.Scale = k.Scale
	job := simJob{
		req:    req,
		prog:   b.Program,
		params: params,
		cfg:    cfg,
		// Sched is always "calendar" and Workers always 0 here; both stay
		// in the key so that its format, and the entries stored under it,
		// stay as they were.
		key: fmt.Sprintf("sim|%s|%d|%g|%d|%s|%s|%s|%d|%t",
			k.Workload, k.NCPU, k.Scale, k.Seed, req.Lock, req.Cons, req.Sched, req.Workers, req.Check),
	}
	return job, nil
}

// TaskForRequest resolves a SimRequest to the exact engine.Task the
// service would run for it. Differential harnesses use it to replay a
// served request straight on an engine and demand bit-identical results.
func TaskForRequest(req api.SimRequest) (engine.Task, error) {
	job, err := normalizeSim(req)
	if err != nil {
		return engine.Task{}, err
	}
	return job.task(), nil
}

// task converts the job into the engine's schedulable unit.
func (j simJob) task() engine.Task {
	return engine.Task{
		Program: j.prog,
		Params:  j.params,
		Label:   j.req.Lock + "/" + j.req.Cons,
		Config:  j.cfg,
	}
}

// analyzeJob is a validated, canonicalised AnalyzeRequest ready to run.
type analyzeJob struct {
	req    api.AnalyzeRequest
	prog   workload.Program
	params workload.Params
	cfg    machine.Config
	key    string
}

// normalizeAnalyze validates a what-if request and resolves it to a
// runnable job. The baseline machine reuses the sim request grammar (lock,
// cons) with the sim defaults; the perturbation list is canonicalised into
// the analyzer's application order.
func normalizeAnalyze(req api.AnalyzeRequest) (analyzeJob, error) {
	sim, err := normalizeSim(api.SimRequest{
		Bench: req.Bench, Scale: req.Scale, NCPU: req.NCPU, Seed: req.Seed,
		Lock: req.Lock, Cons: req.Cons,
	})
	if err != nil {
		return analyzeJob{}, err
	}
	req.Bench, req.Scale, req.NCPU = sim.req.Bench, sim.req.Scale, sim.req.NCPU
	req.Lock, req.Cons = sim.req.Lock, sim.req.Cons

	if req.Threshold < 0 || req.Threshold > 1 {
		return analyzeJob{}, fmt.Errorf("threshold %v outside [0, 1] (0 = service default)", req.Threshold)
	}
	valid := map[string]bool{}
	for _, p := range api.Perturbations() {
		valid[p] = true
	}
	seen := map[string]bool{}
	var perturb []string
	for _, p := range req.Perturb {
		if !valid[p] {
			return analyzeJob{}, fmt.Errorf("unknown perturbation %q (want %s)",
				p, strings.Join(api.Perturbations(), ", "))
		}
		if !seen[p] {
			seen[p] = true
			perturb = append(perturb, p)
		}
	}
	// Canonical order so equivalent spellings coalesce onto one flight.
	if perturb != nil {
		ordered := perturb[:0]
		for _, p := range api.Perturbations() {
			if seen[p] {
				ordered = append(ordered, p)
			}
		}
		perturb = ordered
	}
	req.Perturb = perturb

	return analyzeJob{
		req:    req,
		prog:   sim.prog,
		params: sim.params,
		cfg:    sim.cfg,
		key: fmt.Sprintf("analyze|%s|%d|%g|%d|%s|%s|%s|%g",
			req.Bench, req.NCPU, req.Scale, req.Seed, req.Lock, req.Cons,
			strings.Join(req.Perturb, ","), req.Threshold),
	}, nil
}

// AnalyzeJobForRequest resolves an AnalyzeRequest to the exact replay.Job
// the service would run for it, minus the cache (the caller supplies one).
// cmd/analyze's local mode uses it so in-process and remote analyses apply
// identical normalisation.
func AnalyzeJobForRequest(req api.AnalyzeRequest) (replay.Job, error) {
	job, err := normalizeAnalyze(req)
	if err != nil {
		return replay.Job{}, err
	}
	return replay.Job{Prog: job.prog, Params: job.params, Config: job.cfg, Request: job.req}, nil
}
