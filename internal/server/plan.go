package server

import (
	"fmt"
	"slices"
	"strings"

	"syncsim/internal/api"
	"syncsim/internal/core"
	"syncsim/internal/engine"
	"syncsim/internal/machine"
	"syncsim/internal/metrics"
	"syncsim/internal/workload"
	"syncsim/internal/workload/suite"
)

// This file is the sweep grammar the node and the fleet coordinator
// share: PlanSim and PlanSweep resolve — without running anything — the
// exact canonical requests, cache keys and trace routing keys the service
// derives, and MergeSweep folds the cells' payloads back into a sweep.
// A node runs its plan's cells as one engine run and a coordinator fans
// them out cell by cell, so both produce requests (and therefore results,
// and cache entries) byte-identical to each other.

// SimPlan is the execution plan of one SimRequest.
type SimPlan struct {
	// Request is the canonicalised request (defaults applied, spellings
	// normalised) — the form the service echoes in payloads.
	Request api.SimRequest
	// Key is the job's result-cache key: the L1 result LRU and the shared
	// L2 store both index by it.
	Key string
	// Route is the content-addressed trace key (engine.KeyFor). The
	// fleet ring hashes it so every job over one generated trace lands
	// on the backend that already holds that trace in its engine cache.
	Route engine.Key
}

// PlanSim resolves a SimRequest exactly as POST /v1/sim would, returning
// its plan instead of executing it.
func PlanSim(req api.SimRequest) (SimPlan, error) {
	job, err := normalizeSim(req)
	if err != nil {
		return SimPlan{}, err
	}
	return SimPlan{
		Request: job.req,
		Key:     job.key,
		Route:   engine.KeyFor(job.prog, job.params),
	}, nil
}

// SweepCell is one (benchmark × model) cell of a sweep plan: the sim
// request whose payload carries that cell's share of the sweep response.
type SweepCell struct {
	// Bench and Model name the cell in the sweep's outcome matrix.
	Bench string
	Model string
	// Plan is the cell's sim plan. All models of one benchmark share one
	// Route (the model is a machine config, not a trace parameter), so a
	// ring keyed on Route keeps a benchmark's three model runs — and the
	// trace generation they share — on one backend.
	Plan SimPlan
}

// SweepPlan describes how a SweepRequest executes: the canonical request
// and sweep cache key plus the cell grid in suite × model order, which
// is the order of the sweep's outcomes.
type SweepPlan struct {
	Request api.SweepRequest
	Key     string
	Cells   []SweepCell
	// Params is the parameter set every outcome of this sweep echoes:
	// scale and seed only — the per-benchmark default NCPU lives only
	// inside the cells.
	Params workload.Params
}

// modelSim is the sim request that runs bench under one of the paper's
// machine models, with the lock and consistency model that
// core.Model.MachineConfig gives it.
func modelSim(m core.Model, bench string, scale float64, seed int64) api.SimRequest {
	cfg := m.MachineConfig(machine.DefaultConfig())
	return api.SimRequest{
		Bench: bench,
		Scale: scale,
		Seed:  seed,
		Lock:  cfg.Lock.String(),
		Cons:  cfg.Consistency.String(),
	}
}

// PlanSweep validates a SweepRequest and expands it into its cell grid.
// Repeated models are dropped, keeping first-seen order; no models means
// all three.
func PlanSweep(req api.SweepRequest) (SweepPlan, error) {
	if req.Scale == 0 {
		req.Scale = defaultScale
	}
	if req.Scale < 0 {
		return SweepPlan{}, fmt.Errorf("negative scale %v", req.Scale)
	}
	var models []core.Model
	for _, name := range req.Models {
		m, err := core.ParseModel(name)
		if err != nil {
			return SweepPlan{}, err
		}
		if !slices.Contains(models, m) {
			models = append(models, m)
		}
	}
	if models == nil {
		models = core.Models()
	}
	req.Models = nil // the caller's slice stays as it was
	for _, m := range models {
		req.Models = append(req.Models, m.String())
	}
	sel, err := suite.NewSelection(req.Only...)
	if err != nil {
		return SweepPlan{}, err
	}
	req.Only = sel.Names()

	plan := SweepPlan{
		Request: req,
		Key: fmt.Sprintf("sweep|%g|%d|%s|%s",
			req.Scale, req.Seed, strings.Join(req.Models, ","), strings.Join(req.Only, ",")),
		Params: workload.Params{Scale: req.Scale, Seed: req.Seed},
	}
	for _, b := range sel.Benchmarks() {
		bench := b.Program.Name()
		for _, m := range models {
			cell, err := PlanSim(modelSim(m, bench, req.Scale, req.Seed))
			if err != nil {
				return SweepPlan{}, fmt.Errorf("cell %s/%v: %w", bench, m, err)
			}
			plan.Cells = append(plan.Cells, SweepCell{Bench: bench, Model: m.String(), Plan: cell})
		}
	}
	return plan, nil
}

// MergeSweep folds a plan's cell payloads — one per cell, in plan order —
// into the plan's SweepPayload. A node folds its own engine run with it
// and the fleet coordinator the answers of its backends, so the two build
// a sweep the same way. Outcome order (the plan's), names, params, ideal
// summaries, per-model results and every report's cycle and iteration
// counters follow from the cells. The suite Report sums the cells'
// reports, whose wall-clock fields differ run to run; CanonicalizeSweep
// in internal/fleet zeroes them before two sweeps are compared.
func MergeSweep(plan SweepPlan, payloads []*api.SimPayload) (*api.SweepPayload, error) {
	if len(payloads) != len(plan.Cells) {
		return nil, fmt.Errorf("merge: %d payloads for a %d-cell plan", len(payloads), len(plan.Cells))
	}
	p := &api.SweepPayload{Request: plan.Request}
	// byBench maps benchmark → outcome index: appending to p.Outcomes can
	// move the backing array, so pointers into it are re-taken per cell.
	byBench := map[string]int{}
	for i, cell := range plan.Cells {
		sim := payloads[i]
		if sim == nil || sim.Result == nil {
			return nil, fmt.Errorf("merge: cell %s/%s has no result", cell.Bench, cell.Model)
		}
		// A payload that echoes a different request than the cell asked
		// for is a misrouted or corrupted answer (a buggy backend, a
		// cache collision); merging it would silently poison the sweep's
		// bit-identity, so it fails the sweep instead.
		if sim.Request != cell.Plan.Request {
			return nil, fmt.Errorf("merge: cell %s/%s got a payload for the wrong request (%+v)",
				cell.Bench, cell.Model, sim.Request)
		}
		if got := sim.Result.Name; got != cell.Bench {
			return nil, fmt.Errorf("merge: cell %s/%s got a result named %q", cell.Bench, cell.Model, got)
		}
		idx, ok := byBench[cell.Bench]
		if !ok {
			idx = len(p.Outcomes)
			byBench[cell.Bench] = idx
			p.Outcomes = append(p.Outcomes, api.SweepOutcome{
				Name:    cell.Bench,
				Params:  plan.Params,
				Ideal:   sim.Ideal,
				Results: map[string]*machine.Result{},
				Report:  &metrics.RunReport{},
			})
		}
		out := &p.Outcomes[idx]
		if _, dup := out.Results[cell.Model]; dup {
			return nil, fmt.Errorf("merge: duplicate cell %s/%s", cell.Bench, cell.Model)
		}
		out.Results[cell.Model] = sim.Result
		out.Report.Add(sim.Report)
		p.Report.Add(sim.Report)
	}
	return p, nil
}
