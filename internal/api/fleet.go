package api

// Fleet wire types: the status surface of syncsimfleet, the sharding
// coordinator that fans sweep cells across N syncsimd backends. The
// coordinator speaks the same /v1 job contract as a single backend (its
// /v1/sweep answers are bit-identical to a single node's), plus GET
// /v1/fleet/status described here.

// FleetBackend is one backend's row in a fleet status response.
type FleetBackend struct {
	// URL is the backend's base URL as configured on the coordinator.
	URL string `json:"url"`
	// Healthy is the last health-probe verdict (GET /healthz).
	Healthy bool `json:"healthy"`
	// Circuit is the backend's circuit-breaker position: "closed",
	// "open", or "half-open".
	Circuit string `json:"circuit"`
	// Routed counts cells whose ring-primary was this backend.
	Routed uint64 `json:"routed"`
	// Retried counts cell attempts re-sent to this backend after a
	// retryable failure on the same backend was exhausted upstream of the
	// client's own retry loop (i.e. ring-level retries landing here).
	Retried uint64 `json:"retried"`
	// FailedOver counts cells this backend served as a non-primary
	// replica because an earlier backend in ring order failed.
	FailedOver uint64 `json:"failed_over"`
	// Hedged counts speculative (latency-hedge) cell attempts issued to
	// this backend while an earlier attempt was still in flight.
	Hedged uint64 `json:"hedged"`
	// P95Millis is the backend's windowed p95 successful-call latency in
	// milliseconds (the hedge budget's input); 0 until enough samples.
	P95Millis int64 `json:"p95_ms"`
}

// FleetStatusResponse is the body of GET /v1/fleet/status.
type FleetStatusResponse struct {
	// Backends holds one row per current ring member, in ring-member
	// (sorted URL) order.
	Backends []FleetBackend `json:"backends"`
	// Replicas is the number of virtual nodes per backend on the hash
	// ring.
	Replicas int `json:"replicas"`
	// Epoch is the membership epoch: 0 at boot, +1 per join or leave.
	// In-flight cells route on the epoch they started under.
	Epoch uint64 `json:"epoch"`
	// Sweeps and Cells count jobs since boot: sweeps accepted, and the
	// (benchmark × model-group × scale × seed) cells they fanned out.
	Sweeps uint64 `json:"sweeps"`
	Cells  uint64 `json:"cells"`
	// CacheHits counts sweeps answered whole from the shared
	// content-addressed store (L2), without fanning out; StoreHits counts
	// cells answered from that store without touching a backend.
	CacheHits uint64 `json:"cache_hits"`
	StoreHits uint64 `json:"store_hits"`
	// Coalesced counts cell requests that joined another identical
	// cell's in-flight execution instead of starting their own (the
	// coordinator's cross-backend single-flight).
	Coalesced uint64 `json:"coalesced"`
	// Hedged counts speculative cell attempts issued after a latency
	// budget expired; HedgeWins counts cells whose accepted result came
	// from such a hedge (first answer wins, the loser is cancelled).
	Hedged    uint64 `json:"hedged"`
	HedgeWins uint64 `json:"hedge_wins"`
	// Throttled counts requests rejected 429 by per-tenant quotas.
	Throttled uint64 `json:"throttled"`
}

// FleetJoinRequest is the body of POST /v1/fleet/join and of POST
// /v1/fleet/leave. Join adds a backend to the live ring (epoch +1);
// joining a current member is an idempotent no-op. Leave removes one
// (epoch +1), draining first: the call returns after the member's
// in-flight cells finish (or the drain timeout expires; cells still route
// around the corpse either way).
type FleetJoinRequest struct {
	// Backend is the syncsimd base URL to add or remove.
	Backend string `json:"backend"`
}

// FleetMembershipResponse answers join and leave.
type FleetMembershipResponse struct {
	// Epoch is the membership epoch after the change.
	Epoch uint64 `json:"epoch"`
	// Members is the ring's member list after the change, sorted.
	Members []string `json:"members"`
	// Drained reports (on leave) whether the member's in-flight cells
	// finished before removal; false means the drain timeout expired.
	Drained bool `json:"drained,omitempty"`
}
