package machine

import (
	"context"
	"errors"
	"testing"
	"time"

	"syncsim/internal/trace"
)

func pingPongSet(pairs int) *trace.Set {
	cpus := make([][]trace.Event, 2)
	for i := range cpus {
		var evs []trace.Event
		for j := 0; j < pairs; j++ {
			evs = append(evs,
				trace.Lock(0, 0xF0000000),
				trace.Exec(20),
				trace.Write(0x80000000),
				trace.Unlock(0, 0xF0000000),
			)
		}
		cpus[i] = evs
	}
	return trace.BufferSet("ctx", cpus)
}

func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, pingPongSet(10), DefaultConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCtxCancelMidRun cancels from the run's first heartbeat, so the
// cancellation always lands mid-run, and the same poll must observe it.
func TestRunCtxCancelMidRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CancelEvery = 64 // tight polling so a small trace still observes it
	ctx, cancel := context.WithCancel(context.Background())
	ctx = WithHeartbeat(ctx, func(uint64) { cancel() })
	done := make(chan error, 1)
	go func() {
		_, err := RunCtx(ctx, pingPongSet(100_000), cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunCtx did not observe cancellation within 5s")
	}
}

func TestRunCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	cfg := DefaultConfig()
	cfg.CancelEvery = 64
	_, err := RunCtx(ctx, pingPongSet(200_000), cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunCtxBackgroundCompletes(t *testing.T) {
	res, err := RunCtx(context.Background(), pingPongSet(50), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Locks.Acquisitions != 100 {
		t.Errorf("acquisitions = %d, want 100", res.Locks.Acquisitions)
	}
}
