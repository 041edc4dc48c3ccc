// Package flight is syncsim's concurrency kit: the waiter-counted
// single-flight Group that coalesces identical concurrent work, the
// bounded LRU that memoises finished work, and the PanicError that every
// recover barrier in the module reports. The engine's trace cache, the
// server's job layer and the fleet coordinator's cell layer are all built
// on these types. The package imports only the standard library, so every
// layer can depend on it.
package flight

import (
	"context"
	"fmt"
	"sync"
)

// Group runs at most one execution (a flight) of a job per key at a time
// and shares its result among every caller that asks while it runs. The
// contract, which every user of the package relies on:
//
//   - The first caller of a key (the leader) starts fn on a goroutine of
//     its own. Callers that arrive while the flight runs join it. Every
//     caller receives fn's result; shared reports whether it joined a
//     flight another caller started.
//   - Each caller waits under its own context. A caller whose context
//     ends stops waiting and returns that context's error, the leader
//     included.
//   - A flight is vacated when its last waiter leaves: the key is freed
//     at once and the job context is cancelled. A later caller starts a
//     fresh flight and never receives the abandoned flight's error. The
//     last waiter returns once fn has, so no flight outlives all of its
//     callers.
//   - fn runs under the job context. The group's base context (its
//     owner's lifetime, cancelled by the owner's Close) and the last
//     waiter leaving cancel it. It carries the leader's context values,
//     such as the X-Tenant identity, but not the leader's cancellation.
//   - A panic in fn reaches every waiter as a *PanicError, and the key is
//     vacated as after any other completion.
//
// Nothing is memoised: the key is free again the moment its flight ends.
// Callers that want finished results kept put them in an LRU from fn.
type Group[K comparable, V any] struct {
	base context.Context

	mu    sync.Mutex
	calls map[K]*call[V]
}

// call is one flight.
type call[V any] struct {
	done    chan struct{} // closed once val and err are final
	val     V
	err     error
	waiters int // guarded by Group.mu
	cancel  context.CancelFunc
}

// NewGroup returns a Group whose jobs run until base is cancelled at the
// latest.
func NewGroup[K comparable, V any](base context.Context) *Group[K, V] {
	return &Group[K, V]{base: base, calls: make(map[K]*call[V])}
}

// Do returns key's result, starting fn if no flight for key is running
// and joining the running flight otherwise. See Group for the contract.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (val V, shared bool, err error) {
	if err := ctx.Err(); err != nil {
		return val, false, err
	}
	g.mu.Lock()
	c, shared := g.calls[key]
	if shared {
		c.waiters++
	} else {
		c = g.start(ctx, key, fn)
	}
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, shared, c.err
	case <-ctx.Done():
		if g.leave(key, c) {
			<-c.done
		}
		return val, shared, ctx.Err()
	}
}

// Waiters reports how many callers are waiting on key's flight; zero
// means no flight for key is running.
func (g *Group[K, V]) Waiters(key K) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.waiters
	}
	return 0
}

// start registers a flight for key with the leader as its one waiter and
// launches fn. The goroutine ends when fn returns, which the waiters wait
// for; the last waiter to leave, or the owner's Close, cancels the job
// context to make that early. Called with g.mu held.
func (g *Group[K, V]) start(leader context.Context, key K, fn func(context.Context) (V, error)) *call[V] {
	ctx, cancel := context.WithCancel(context.WithoutCancel(leader))
	stopBase := context.AfterFunc(g.base, cancel)
	c := &call[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.calls[key] = c
	go func() {
		defer stopBase()
		c.val, c.err = run(ctx, key, fn)
		cancel()
		g.mu.Lock()
		if g.calls[key] == c {
			delete(g.calls, key)
		}
		g.mu.Unlock()
		close(c.done)
	}()
	return c
}

// leave records a departing waiter and reports whether it was the last.
// The last one out vacates the key and cancels the job; the identity
// check keeps a newer flight for the same key in place.
func (g *Group[K, V]) leave(key K, c *call[V]) bool {
	g.mu.Lock()
	c.waiters--
	last := c.waiters == 0
	if last && g.calls[key] == c {
		delete(g.calls, key)
	}
	g.mu.Unlock()
	if last {
		c.cancel()
	}
	return last
}

// run is the flight's panic barrier: a panicking fn must still complete
// its flight, or every waiter would hang and the key would stay taken.
func run[K comparable, V any](ctx context.Context, key K, fn func(context.Context) (V, error)) (val V, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = Recovered(fmt.Sprint(key), v)
		}
	}()
	return fn(ctx)
}
