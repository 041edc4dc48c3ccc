package trace

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// addEvent queues ev on cpu as a one-record chunk.
func addEvent(r *RingSet, cpu int, ev Event) {
	r.AddChunk(cpu, compactOf([]Event{ev}))
}

// TestRingQueuesExactSizeChunks: the ring queues a copy of each chunk at
// its encoded size, so the producer's append slack never sits in the
// queue, and the producer keeps its own Compact to record into.
func TestRingQueuesExactSizeChunks(t *testing.T) {
	evs := compactEvents(rand.New(rand.NewSource(7)), 300)
	var c Compact
	for _, ev := range evs[:200] {
		c.Add(ev)
	}
	if cap(c.buf) == len(c.buf) {
		t.Fatal("the chunk has no append slack to drop; pick another length")
	}
	r := NewRingSet("exact", 1, 1024)
	r.AddChunk(0, &c)
	for _, ev := range evs[200:] {
		c.Add(ev) // the caller's buffer is its own again
	}

	q := r.queues[0].chunks
	if len(q) != 1 || q[0] == &c {
		t.Fatalf("queued %d chunks, want one copy of the caller's", len(q))
	}
	if got := q[0]; got.Len() != 200 || cap(got.buf) != len(got.buf) {
		t.Errorf("queued chunk: %d events in %d bytes of %d capacity, want 200 events and no slack",
			got.Len(), len(got.buf), cap(got.buf))
	}
	r.Close(nil)
	var got []Event
	src := r.Set().Sources[0]
	for ev, ok := src.Next(); ok; ev, ok = src.Next() {
		got = append(got, ev)
	}
	if !reflect.DeepEqual(got, evs[:200]) {
		t.Errorf("replayed %d events, want the 200 queued before the caller recorded more", len(got))
	}
}

func TestRingSetStreamsInOrder(t *testing.T) {
	const ncpu, perCPU = 3, 500
	r := NewRingSet("prog", ncpu, 64)
	want := make([][]Event, ncpu)
	for cpu := 0; cpu < ncpu; cpu++ {
		for i := 0; i < perCPU; i++ {
			want[cpu] = append(want[cpu], Exec(uint32(cpu*perCPU+i+1)))
		}
	}

	set := r.Set()
	if set.NCPU() != ncpu {
		t.Fatalf("NCPU = %d, want %d", set.NCPU(), ncpu)
	}
	// One consumer goroutine interleaving the CPUs, like the machine's
	// single simulation loop.
	var wg sync.WaitGroup
	got := make([][]Event, ncpu)
	wg.Add(1)
	go func() {
		defer wg.Done()
		live := ncpu
		for live > 0 {
			live = 0
			for cpu := 0; cpu < ncpu; cpu++ {
				if ev, ok := set.Sources[cpu].Next(); ok {
					got[cpu] = append(got[cpu], ev)
					live++
				}
			}
		}
	}()
	// Producer: round-robin across CPUs, as a virtual-time coordinator
	// would, against the 64-event budget.
	for i := 0; i < perCPU; i++ {
		for cpu := 0; cpu < ncpu; cpu++ {
			addEvent(r, cpu, want[cpu][i])
		}
	}
	r.Close(nil)
	wg.Wait()

	for cpu := range want {
		if !reflect.DeepEqual(got[cpu], want[cpu]) {
			t.Fatalf("cpu %d: got %d events, want %d (order or content differ)",
				cpu, len(got[cpu]), len(want[cpu]))
		}
	}
	if r.Err() != nil {
		t.Fatalf("Err = %v, want nil", r.Err())
	}
	if r.MaxBuffered() > r.Budget()+2*ncpu {
		t.Fatalf("MaxBuffered = %d, want ≤ budget %d + small skew", r.MaxBuffered(), r.Budget())
	}
}

// The backpressure override: a producer parked on the budget must spill
// when a consumer is starved on another CPU, or producer and consumer
// would deadlock waiting on each other.
func TestRingSetStarvationOverride(t *testing.T) {
	r := NewRingSet("prog", 2, 4)
	set := r.Set()

	fed := make(chan Event)
	go func() {
		// Consumer for CPU 1 only; CPU 0's queue is never drained.
		ev, ok := set.Sources[1].Next()
		if ok {
			fed <- ev
		}
		close(fed)
	}()

	// Fill the budget entirely with CPU 0 events, then emit the CPU 1
	// event the consumer is starving for. Without the override this
	// AddChunk blocks forever and the test times out.
	for i := 0; i < 4; i++ {
		addEvent(r, 0, Exec(uint32(i+1)))
	}
	addEvent(r, 1, Exec(99))
	if ev := <-fed; ev != Exec(99) {
		t.Fatalf("starved consumer got %v, want Exec(99)", ev)
	}
	r.Close(nil)
}

func TestRingSetCloseWithError(t *testing.T) {
	sentinel := errors.New("generator failed")
	r := NewRingSet("prog", 1, 8)
	src := r.Set().Sources[0]
	addEvent(r, 0, Exec(1))
	r.Close(sentinel)

	// Buffered events still drain, then the stream ends.
	if got := Drain(src); !reflect.DeepEqual(got, []Event{Exec(1)}) {
		t.Fatalf("Drain = %v, want the buffered event", got)
	}
	if !errors.Is(r.Err(), sentinel) {
		t.Fatalf("Err = %v, want %v", r.Err(), sentinel)
	}
}

func TestRingSetAbortPoisonsProducer(t *testing.T) {
	r := NewRingSet("prog", 1, 2)
	src := r.Set().Sources[0]

	blocked := make(chan any, 1)
	go func() {
		defer func() { blocked <- recover() }()
		for i := 0; ; i++ {
			addEvent(r, 0, Exec(uint32(i+1))) // blocks at the budget, then panics on Abort
		}
	}()

	// Consume one event so the producer is definitely live, then abort.
	if _, ok := src.Next(); !ok {
		t.Fatal("source ended before abort")
	}
	r.Abort()
	if v := <-blocked; v != ErrStreamAborted {
		t.Fatalf("producer panic = %v, want ErrStreamAborted", v)
	}
	// The consumer side sees end-of-stream, not a hang.
	for {
		if _, ok := src.Next(); !ok {
			break
		}
	}
	if !errors.Is(r.Err(), ErrStreamAborted) {
		t.Fatalf("Err = %v, want ErrStreamAborted", r.Err())
	}
}

// Multi-record chunks: every CPU's stream, whose addresses need both delta
// predictors, is cut into Compacts of 1-maxChunk events and replayed
// through the ring. Three producer/consumer pairings:
//
//   - round-robin producer, interleaved consumer: the coordinator's usual
//     order against the machine's;
//   - one CPU's whole stream before the next (how Topopt generates),
//     consumed in that same order;
//   - one CPU at a time, interleaved consumer: every consumer but the
//     first starves until the producer reaches its CPU.
//
// The replay must equal the input every time. In the first two pairings a
// consumer only waits on an empty queue while fewer than budget events are
// queued, so the producer never spills and passes the budget by at most
// one chunk. In the third, consumers starve with the ring full, and the
// producer must spill past the budget or the pipeline would deadlock.
func TestRingSetCompactChunks(t *testing.T) {
	const ncpu, perCPU, budget, maxChunk = 4, 3000, 512, 64
	rng := rand.New(rand.NewSource(11))
	want := make([][]Event, ncpu)
	for cpu := range want {
		want[cpu] = compactEvents(rng, perCPU)
	}
	// One set of chunk bounds for every CPU, as the generators' fixed-size
	// chunks.
	bounds := []int{0}
	for bounds[len(bounds)-1] < perCPU {
		bounds = append(bounds, min(bounds[len(bounds)-1]+1+rng.Intn(maxChunk), perCPU))
	}
	nchunks := len(bounds) - 1
	chunk := func(cpu, i int) *Compact { return compactOf(want[cpu][bounds[i]:bounds[i+1]]) }
	roundRobin := func(r *RingSet) {
		for i := range nchunks {
			for cpu := range ncpu {
				r.AddChunk(cpu, chunk(cpu, i))
			}
		}
	}
	oneCPUAtATime := func(r *RingSet) {
		for cpu := range ncpu {
			for i := range nchunks {
				r.AddChunk(cpu, chunk(cpu, i))
			}
		}
	}
	interleaved := func(set *Set) [][]Event {
		got := make([][]Event, ncpu)
		for live := ncpu; live > 0; {
			live = 0
			for cpu, src := range set.Sources {
				if ev, ok := src.Next(); ok {
					got[cpu] = append(got[cpu], ev)
					live++
				}
			}
		}
		return got
	}
	inOrder := func(set *Set) [][]Event {
		got := make([][]Event, ncpu)
		for cpu, src := range set.Sources {
			for len(got[cpu]) < len(want[cpu]) {
				ev, ok := src.Next()
				if !ok {
					break
				}
				got[cpu] = append(got[cpu], ev)
			}
		}
		for cpu, src := range set.Sources {
			got[cpu] = append(got[cpu], Drain(src)...)
		}
		return got
	}

	cases := []struct {
		name     string
		produce  func(*RingSet)
		consume  func(*Set) [][]Event
		starving bool
	}{
		{"round-robin-to-interleaved", roundRobin, interleaved, false},
		{"one-cpu-at-a-time-to-in-order", oneCPUAtATime, inOrder, false},
		{"one-cpu-at-a-time-to-interleaved", oneCPUAtATime, interleaved, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRingSet("prog", ncpu, budget)
			set := r.Set()
			var got [][]Event
			done := make(chan struct{})
			go func() {
				defer close(done)
				got = tc.consume(set)
			}()
			tc.produce(r)
			r.Close(nil)
			<-done

			for cpu := range want {
				if !reflect.DeepEqual(got[cpu], want[cpu]) {
					t.Fatalf("cpu %d: replayed %d events, want %d (order or content differ)",
						cpu, len(got[cpu]), len(want[cpu]))
				}
			}
			peak := r.MaxBuffered()
			if tc.starving && peak <= budget {
				t.Fatalf("MaxBuffered = %d: a starved consumer needs the producer past the budget %d", peak, budget)
			}
			if !tc.starving && peak >= budget+maxChunk {
				t.Fatalf("MaxBuffered = %d, want < budget %d + one chunk %d when no consumer starves on a full ring",
					peak, budget, maxChunk)
			}
		})
	}
}
