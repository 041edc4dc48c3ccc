package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"syncsim/internal/trace"
	"syncsim/internal/workload"
)

// gatedProgram wraps fakeProgram so a test can hold Generate open: each call
// signals entered, then blocks until release is closed. This pins a fill in
// flight while other lookups for the same key arrive.
type gatedProgram struct {
	fakeProgram
	entered chan struct{} // one signal per Generate entry (buffered)
	release chan struct{} // closed to let Generate proceed
}

func (p *gatedProgram) Generate(q workload.Params) (*trace.Set, error) {
	p.entered <- struct{}{}
	<-p.release
	return p.fakeProgram.Generate(q)
}

func newGatedProgram(calls *atomic.Int32) *gatedProgram {
	return &gatedProgram{
		fakeProgram: fakeProgram{name: "Gated", ncpu: 2, pairs: 10, genCalls: calls},
		entered:     make(chan struct{}, 4),
		release:     make(chan struct{}),
	}
}

// TestCacheCapLRU is the regression test for the unbounded-growth bug:
// before the capacity option, entries were only evicted on aborted fills,
// so a long-lived process churning through distinct keys grew without
// bound. Under churn Len() must never exceed the cap, old keys must be
// displaced LRU-first, and a re-lookup of a recently used key must hit.
func TestCacheCapLRU(t *testing.T) {
	var calls atomic.Int32
	p := &fakeProgram{name: "Churn", ncpu: 2, pairs: 4, genCalls: &calls}
	const cap = 3
	c := NewTraceCacheCap(cap)
	if c.Cap() != cap {
		t.Fatalf("Cap() = %d, want %d", c.Cap(), cap)
	}
	ctx := context.Background()

	for seed := int64(1); seed <= 10; seed++ {
		if _, _, _, err := c.Get(ctx, p, workload.Params{Scale: 1, Seed: seed}, nil); err != nil {
			t.Fatalf("Get(seed %d): %v", seed, err)
		}
		if n := c.Len(); n > cap {
			t.Fatalf("after %d inserts Len() = %d, exceeds cap %d", seed, n, cap)
		}
	}
	if got := calls.Load(); got != 10 {
		t.Fatalf("Generate called %d times, want 10 (all distinct keys)", got)
	}

	// Seeds 8..10 are the residents. Touch 8 so it becomes most recent,
	// then insert a new key: 9 is now the LRU and must be the one evicted.
	if _, _, info, err := c.Get(ctx, p, workload.Params{Scale: 1, Seed: 8}, nil); err != nil || !info.Hit {
		t.Fatalf("Get(seed 8) = hit=%v err=%v, want cache hit", info.Hit, err)
	}
	if _, _, _, err := c.Get(ctx, p, workload.Params{Scale: 1, Seed: 11}, nil); err != nil {
		t.Fatalf("Get(seed 11): %v", err)
	}
	if _, _, info, err := c.Get(ctx, p, workload.Params{Scale: 1, Seed: 8}, nil); err != nil || !info.Hit {
		t.Fatalf("recently used seed 8 was evicted (hit=%v err=%v)", info.Hit, err)
	}
	if _, _, info, err := c.Get(ctx, p, workload.Params{Scale: 1, Seed: 9}, nil); err != nil || info.Hit {
		t.Fatalf("LRU seed 9 should have been evicted (hit=%v err=%v)", info.Hit, err)
	}
	if n := c.Len(); n > cap {
		t.Fatalf("final Len() = %d, exceeds cap %d", n, cap)
	}

	st := c.Stats()
	if st.Evictions == 0 || st.Misses == 0 || st.Hits == 0 {
		t.Errorf("Stats() = %+v, want non-zero hits, misses and evictions", st)
	}
	if st.Len != c.Len() || st.Cap != cap {
		t.Errorf("Stats() occupancy %+v inconsistent with Len %d / Cap %d", st, c.Len(), cap)
	}
}

// TestCacheCapConcurrentChurn hammers a small cache from several goroutines
// over an overlapping key range and asserts the bound is never exceeded.
func TestCacheCapConcurrentChurn(t *testing.T) {
	p := &fakeProgram{name: "ChurnRace", ncpu: 2, pairs: 4}
	const cap = 2
	c := NewTraceCacheCap(cap)
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				seed := int64((g + i) % 7)
				if _, _, _, err := c.Get(ctx, p, workload.Params{Scale: 1, Seed: seed}, nil); err != nil {
					t.Errorf("Get(seed %d): %v", seed, err)
					return
				}
				if n := c.Len(); n > cap {
					t.Errorf("Len() = %d, exceeds cap %d", n, cap)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheCrossCancellation is the regression test for the single-flight
// poisoning bug: a waiter blocked on a concurrent fill used to inherit the
// FILLER's ctx.Err() when the filler was cancelled mid-generation. The
// waiter's context is alive, so it keeps the one fill alive: the filler
// gets its own cancellation, and the waiter gets the trace as a hit.
func TestCacheCrossCancellation(t *testing.T) {
	var calls atomic.Int32
	p := newGatedProgram(&calls)
	c := NewTraceCache()
	params := workload.Params{Scale: 1, Seed: 1}

	fillerCtx, cancelFiller := context.WithCancel(context.Background())
	defer cancelFiller()
	fillerErr := make(chan error, 1)
	go func() {
		_, _, _, err := c.Get(fillerCtx, p, params, nil)
		fillerErr <- err
	}()
	<-p.entered // the filler is inside Generate; its fill is in flight

	var waiterInfo CacheInfo
	waiterErr := make(chan error, 1)
	go func() {
		_, _, info, err := c.Get(context.Background(), p, params, nil)
		waiterInfo = info
		waiterErr <- err
	}()
	key := KeyFor(p, params)
	for deadline := time.Now().Add(5 * time.Second); c.fills.Waiters(key) != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the waiter never joined the fill")
		}
	}

	cancelFiller()
	if err := <-fillerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("filler err = %v, want its own context.Canceled", err)
	}
	close(p.release)

	if err := <-waiterErr; err != nil {
		t.Fatalf("waiter with a live context inherited the filler's cancellation: %v", err)
	}
	if !waiterInfo.Hit {
		t.Error("waiter reported a miss; it joined the filler's generation")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("Generate called %d times, want 1 (the waiter kept the one fill alive)", got)
	}
}

// TestCacheWaiterOwnCancellation checks the other half of the contract: a
// waiter whose OWN context is dead reports its own error and does not
// trigger a regeneration.
func TestCacheWaiterOwnCancellation(t *testing.T) {
	var calls atomic.Int32
	p := newGatedProgram(&calls)
	c := NewTraceCache()
	params := workload.Params{Scale: 1, Seed: 1}

	fillerCtx, cancelFiller := context.WithCancel(context.Background())
	defer cancelFiller()
	fillerErr := make(chan error, 1)
	go func() {
		_, _, _, err := c.Get(fillerCtx, p, params, nil)
		fillerErr <- err
	}()
	<-p.entered

	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, _, err := c.Get(waiterCtx, p, params, nil)
		waiterErr <- err
	}()
	key := KeyFor(p, params)
	for deadline := time.Now().Add(5 * time.Second); c.fills.Waiters(key) != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the waiter never joined the fill")
		}
	}

	cancelWaiter()
	cancelFiller()
	close(p.release)

	if err := <-fillerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("filler err = %v, want context.Canceled", err)
	}
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("Generate called %d times, want 1 (no retry for a dead waiter)", got)
	}
}
