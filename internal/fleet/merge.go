package fleet

import "syncsim/internal/api"

// CanonicalizeSweep zeroes a sweep response's volatile fields in place —
// wall-clock timings, cache-topology counters, worker counts, and the
// served marker — leaving exactly the deterministic content two
// executions of one sweep must agree on bit for bit, whatever the fleet
// topology: request echo, outcome order, params, ideal trace statistics,
// per-model machine results, and the simulated-cycle / scheduler-work
// counters of every report. The CI smoke job pipes both a fleet's and a
// single node's response through `syncsimfleet -normalize` and compares
// bytes.
func CanonicalizeSweep(resp *api.SweepResponse) {
	if resp == nil {
		return
	}
	resp.Served = ""
	if resp.SweepPayload == nil {
		return
	}
	r := &resp.Report
	r.Wall, r.Workers, r.Busy = 0, 0, 0
	r.Generate, r.Analyze, r.Simulate = 0, 0, 0
	r.CacheHits, r.CacheMisses = 0, 0
	for i := range resp.Outcomes {
		if rep := resp.Outcomes[i].Report; rep != nil {
			rep.Generate, rep.Analyze, rep.Simulate, rep.Wall = 0, 0, 0, 0
			rep.CacheHits = 0
		}
	}
}
