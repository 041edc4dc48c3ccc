package fleet

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"syncsim/internal/api"
	"syncsim/internal/server"
)

// ringState is one immutable epoch of the fleet's membership: the ring
// plus the epoch counter that names it. The coordinator swaps whole
// ringStates atomically; a cell captures the state once when it starts
// routing and walks that epoch's failover order to the end before it
// will look at a newer ring (see runCell). Routing therefore never sees
// a half-applied membership change.
type ringState struct {
	epoch uint64
	ring  *Ring
}

// membership owns the live ring pointer and the per-backend in-flight
// attempt accounting that drain-before-leave waits on.
type membership struct {
	cur atomic.Pointer[ringState]

	// changeMu serialises join/leave. Held across a leave's drain, so
	// admin operations are strictly ordered; cell routing never takes it.
	changeMu sync.Mutex

	mu       sync.Mutex
	cond     *sync.Cond
	inflight map[string]int // live attempts per backend
}

func newMembership(ring *Ring) *membership {
	m := &membership{inflight: make(map[string]int)}
	m.cond = sync.NewCond(&m.mu)
	m.cur.Store(&ringState{epoch: 0, ring: ring})
	return m
}

// load returns the current ring state (lock-free; routing's hot path).
func (m *membership) load() *ringState { return m.cur.Load() }

// track records one attempt in flight on backend; the returned func
// must be called when the attempt finishes (any outcome).
func (m *membership) track(backend string) func() {
	m.mu.Lock()
	m.inflight[backend]++
	m.mu.Unlock()
	return func() {
		m.mu.Lock()
		m.inflight[backend]--
		if m.inflight[backend] <= 0 {
			delete(m.inflight, backend)
			m.cond.Broadcast()
		}
		m.mu.Unlock()
	}
}

// drain blocks until backend has no attempts in flight, the timeout
// elapses, or ctx dies; it reports whether the backend actually drained.
// Callers must already have made the backend unroutable (ring swap) —
// drain only waits out stragglers that captured the old epoch.
func (m *membership) drain(ctx context.Context, backend string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	// Cond has no deadline; a timer broadcast wakes the wait loop so it
	// can notice the deadline (and a ctx watcher does the same).
	wake := time.AfterFunc(timeout, m.cond.Broadcast)
	defer wake.Stop()
	stop := context.AfterFunc(ctx, m.cond.Broadcast)
	defer stop()

	m.mu.Lock()
	defer m.mu.Unlock()
	for m.inflight[backend] > 0 {
		if time.Now().After(deadline) || ctx.Err() != nil {
			return false
		}
		m.cond.Wait()
	}
	return true
}

// errNotMember and errLastMember classify admin-plane failures: unknown
// member → 404, removing the only member → 409 (a fleet with zero
// backends can serve nothing; stop the coordinator instead).
var (
	errNotMember  = errors.New("fleet: not a ring member")
	errLastMember = errors.New("fleet: cannot remove the last ring member")
)

// Join adds a backend to the live ring. The member is made servable
// (client pool, health prober, stats row) before it becomes routable
// (ring swap), so a cell routed to it in the instant after the swap
// finds a working client. Joining an existing member is an idempotent
// no-op that reports the current epoch.
func (c *Coordinator) Join(backend string) (api.FleetMembershipResponse, error) {
	if backend == "" {
		return api.FleetMembershipResponse{}, errors.New("fleet: empty backend URL")
	}
	c.members.changeMu.Lock()
	defer c.members.changeMu.Unlock()
	cur := c.members.load()
	if cur.ring.Has(backend) {
		return api.FleetMembershipResponse{Epoch: cur.epoch, Members: cur.ring.Members()}, nil
	}
	ring, err := cur.ring.WithMember(backend)
	if err != nil {
		return api.FleetMembershipResponse{}, err
	}
	c.pool.Add(backend)
	c.health.add(backend)
	c.statsFor(backend)
	next := &ringState{epoch: cur.epoch + 1, ring: ring}
	c.members.cur.Store(next)
	c.logf("fleet: epoch %d: %s joined (%d members)", next.epoch, backend, len(ring.Members()))
	return api.FleetMembershipResponse{Epoch: next.epoch, Members: ring.Members()}, nil
}

// Leave removes a backend from the live ring, drain-before-leave: the
// ring is swapped first — no new cell picks the member as primary — then
// the call waits for attempts that captured the old epoch to finish
// before the member's client and prober state are torn down. A drain
// timeout does not block removal: stragglers that still try the departed
// backend get an unknown-backend failure and fail over along their ring
// order, exactly as if the backend had died.
func (c *Coordinator) Leave(ctx context.Context, backend string) (api.FleetMembershipResponse, error) {
	c.members.changeMu.Lock()
	defer c.members.changeMu.Unlock()
	cur := c.members.load()
	if !cur.ring.Has(backend) {
		return api.FleetMembershipResponse{}, errNotMember
	}
	ring, err := cur.ring.WithoutMember(backend)
	if err != nil {
		return api.FleetMembershipResponse{}, errLastMember
	}
	next := &ringState{epoch: cur.epoch + 1, ring: ring}
	c.members.cur.Store(next)
	c.logf("fleet: epoch %d: %s leaving, draining (%d members remain)", next.epoch, backend, len(ring.Members()))
	drained := c.members.drain(ctx, backend, c.cfg.DrainTimeout)
	c.health.remove(backend)
	c.pool.Remove(backend)
	if drained {
		c.logf("fleet: %s drained and removed", backend)
	} else {
		c.logf("fleet: drain of %s timed out; removed anyway (stragglers will fail over)", backend)
	}
	return api.FleetMembershipResponse{Epoch: next.epoch, Members: ring.Members(), Drained: drained}, nil
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	c.handleMembership(w, r, func(backend string) (api.FleetMembershipResponse, error) {
		return c.Join(backend)
	})
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	c.handleMembership(w, r, func(backend string) (api.FleetMembershipResponse, error) {
		return c.Leave(r.Context(), backend)
	})
}

func (c *Coordinator) handleMembership(w http.ResponseWriter, r *http.Request, op func(string) (api.FleetMembershipResponse, error)) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// Join and leave share one body shape.
	var req api.FleetJoinRequest
	if !server.DecodeBody(w, r, c.cfg.MaxBodyBytes, &req) {
		return
	}
	resp, err := op(req.Backend)
	switch {
	case errors.Is(err, errNotMember):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, errLastMember):
		http.Error(w, err.Error(), http.StatusConflict)
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		server.WriteJSON(w, http.StatusOK, resp)
	}
}
