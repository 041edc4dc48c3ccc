package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds. The poll is a liveness deadline, not
// a correctness sleep: every assertion is on the state cond observes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

type outcome struct {
	val    int
	shared bool
	err    error
}

// TestGroupCoalesces: N concurrent callers of one key run fn once; one
// caller leads (shared=false) and N-1 join (shared=true), and all of them
// receive the leader's value.
func TestGroupCoalesces(t *testing.T) {
	g := NewGroup[string, int](context.Background())
	const n = 8
	var runs atomic.Int32
	gate := make(chan struct{})
	fn := func(context.Context) (int, error) {
		runs.Add(1)
		<-gate
		return 42, nil
	}
	out := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			v, shared, err := g.Do(context.Background(), "k", fn)
			out <- outcome{v, shared, err}
		}()
	}
	waitFor(t, "all callers to join", func() bool { return g.Waiters("k") == n })
	close(gate)

	leaders := 0
	for i := 0; i < n; i++ {
		o := <-out
		if o.err != nil || o.val != 42 {
			t.Errorf("caller got (%d, %v), want (42, nil)", o.val, o.err)
		}
		if !o.shared {
			leaders++
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if leaders != 1 {
		t.Errorf("%d callers report shared=false, want exactly 1", leaders)
	}
	if w := g.Waiters("k"); w != 0 {
		t.Errorf("Waiters after completion = %d, want 0", w)
	}
}

// TestGroupWaitersLeave: every caller whose context ends returns its own
// context's error, the leader included, and the job context is cancelled
// only when the last waiter has left.
func TestGroupWaitersLeave(t *testing.T) {
	g := NewGroup[string, int](context.Background())
	errJob := errors.New("job saw its cancellation") // never a waiter's answer
	jobCtx := make(chan context.Context, 1)
	fn := func(ctx context.Context) (int, error) {
		jobCtx <- ctx
		<-ctx.Done()
		return 0, errJob
	}
	wait := func(ctx context.Context) chan outcome {
		out := make(chan outcome, 1)
		go func() {
			v, shared, err := g.Do(ctx, "k", fn)
			out <- outcome{v, shared, err}
		}()
		return out
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leader := wait(leaderCtx)
	job := <-jobCtx
	followerCtx, cancelFollower := context.WithCancel(context.Background())
	defer cancelFollower()
	follower := wait(followerCtx)
	waitFor(t, "the follower to join", func() bool { return g.Waiters("k") == 2 })

	cancelLeader()
	if o := <-leader; !errors.Is(o.err, context.Canceled) || o.shared {
		t.Fatalf("leader got (shared=%v, %v), want its own context.Canceled", o.shared, o.err)
	}
	if err := job.Err(); err != nil {
		t.Fatalf("job cancelled (%v) while a follower still waits", err)
	}
	if w := g.Waiters("k"); w != 1 {
		t.Fatalf("Waiters after the leader left = %d, want 1", w)
	}

	cancelFollower()
	if o := <-follower; !errors.Is(o.err, context.Canceled) || !o.shared {
		t.Fatalf("follower got (shared=%v, %v), want its own context.Canceled", o.shared, o.err)
	}
	<-job.Done() // the last waiter left: the job is cancelled
}

// TestGroupVacatesAbandonedFlight: once the last waiter has left, the key
// is free at once. A later caller with a live context runs a fresh fn,
// even while the abandoned one is still winding down, and never receives
// the abandoned flight's cancellation. The last waiter itself returns
// only after the abandoned fn has.
func TestGroupVacatesAbandonedFlight(t *testing.T) {
	g := NewGroup[string, int](context.Background())
	windDown := make(chan struct{})
	var wound atomic.Bool
	callerCtx, cancel := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, _, err := g.Do(callerCtx, "k", func(ctx context.Context) (int, error) {
			<-ctx.Done()
			<-windDown // a job slow to notice its cancellation
			wound.Store(true)
			return 0, ctx.Err()
		})
		first <- err
	}()
	waitFor(t, "the first flight to start", func() bool { return g.Waiters("k") == 1 })
	cancel()
	waitFor(t, "the key to be vacated", func() bool { return g.Waiters("k") == 0 })

	v, shared, err := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 || shared {
		t.Fatalf("later caller got (%d, shared=%v, %v), want a fresh run (7, false, nil)", v, shared, err)
	}
	close(windDown)
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller err = %v, want its own context.Canceled", err)
	}
	if !wound.Load() {
		t.Error("the last waiter returned before its abandoned fn did")
	}
}

// TestGroupPanic: a panic in fn reaches every waiter as a *PanicError
// naming the key, and the key is vacated for the next caller.
func TestGroupPanic(t *testing.T) {
	g := NewGroup[string, int](context.Background())
	gate := make(chan struct{})
	fn := func(context.Context) (int, error) {
		<-gate
		panic("boom")
	}
	out := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			v, shared, err := g.Do(context.Background(), "k", fn)
			out <- outcome{v, shared, err}
		}()
	}
	waitFor(t, "both callers to join", func() bool { return g.Waiters("k") == 2 })
	close(gate)
	for i := 0; i < 2; i++ {
		o := <-out
		var pe *PanicError
		if !errors.As(o.err, &pe) {
			t.Fatalf("waiter err = %v (%T), want *PanicError", o.err, o.err)
		}
		if pe.Job != "k" || pe.Value != "boom" || len(pe.Stack) == 0 {
			t.Errorf("PanicError = {Job: %q, Value: %v, %d stack bytes}", pe.Job, pe.Value, len(pe.Stack))
		}
	}
	if v, _, err := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 1, nil }); err != nil || v != 1 {
		t.Errorf("after the panic: (%d, %v), want a fresh run (1, nil)", v, err)
	}
}

type tenantKey struct{}

// TestGroupJobContext: the job context carries the leader's values (the
// tenant identity the coordinator forwards to backends) and is cancelled
// by the owner's base context even though the leader still waits.
func TestGroupJobContext(t *testing.T) {
	base, closeOwner := context.WithCancel(context.Background())
	g := NewGroup[string, string](base)
	leaderCtx := context.WithValue(context.Background(), tenantKey{}, "alice")
	started := make(chan struct{})
	out := make(chan error, 1)
	var tenant any
	go func() {
		_, _, err := g.Do(leaderCtx, "k", func(ctx context.Context) (string, error) {
			tenant = ctx.Value(tenantKey{})
			close(started)
			<-ctx.Done()
			return "", ctx.Err()
		})
		out <- err
	}()
	<-started
	closeOwner()
	if err := <-out; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want the job's context.Canceled after Close", err)
	}
	if leaderCtx.Err() != nil {
		t.Fatal("the leader's own context was cancelled")
	}
	if tenant != "alice" {
		t.Errorf("job context tenant = %v, want the leader's alice", tenant)
	}
}

// TestGroupStress drives a few keys from many goroutines whose contexts
// end at random points. Every caller must get either the flight's value
// or its own context's error, and every key must end vacated. Run it
// under -race with a high -count: single-flight races show up only in
// some interleavings.
func TestGroupStress(t *testing.T) {
	g := NewGroup[int, int](context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := i % 4
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*100*time.Microsecond)
			defer cancel()
			v, _, err := g.Do(ctx, key, func(ctx context.Context) (int, error) {
				select {
				case <-time.After(200 * time.Microsecond):
					return key * 10, nil
				case <-ctx.Done():
					return 0, ctx.Err()
				}
			})
			switch {
			case err == nil && v != key*10:
				t.Errorf("key %d: value %d, want %d", key, v, key*10)
			case err != nil && !errors.Is(err, context.DeadlineExceeded):
				t.Errorf("key %d: err = %v, want nil or the caller's own deadline", key, err)
			case err != nil && ctx.Err() == nil:
				t.Errorf("key %d: caller with a live context got %v", key, err)
			}
		}(i)
	}
	wg.Wait()
	for key := 0; key < 4; key++ {
		waitFor(t, fmt.Sprintf("key %d to be vacated", key), func() bool { return g.Waiters(key) == 0 })
	}
}
