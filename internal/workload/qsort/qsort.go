// Package qsort re-creates the paper's Qsort benchmark: Kahan & Ruzzo's
// parallel quicksort on the Sequent ("Parallel Quicksand"), sorting random
// integers on 12 processors in C.
//
// The generator runs a real parallel quicksort: a shared work queue of
// array segments protected by one short-critical-section lock (the paper's
// 52-cycle average hold); processors pop a segment, partition it in place
// (emitting the loads, compares and swap stores over the shared array), and
// push the two halves back until segments fall below the cutoff, which are
// then sorted locally without queue traffic. The data set dwarfs the 64 KB
// caches, so the simulated run is dominated by read misses — the reason the
// paper's Qsort utilisation sits at 67.8% with essentially no lock waiting.
package qsort

import (
	"math/rand"

	"syncsim/internal/trace"
	"syncsim/internal/workload"
	"syncsim/internal/workload/addr"
)

const (
	fnQueue     = 0
	fnPartition = 1

	queueLock uint32 = 0

	arrayBase = addr.SharedBase + 0x100000
	queueBase = addr.SharedBase + 0x1000
)

// Qsort is the benchmark generator.
type Qsort struct {
	// Elements is the array size at Scale 1. The paper sorted 1,000,000
	// integers but traced only a window; this default reproduces the
	// traced reference counts.
	Elements int
	// Cutoff is the segment size below which a processor sorts locally
	// instead of pushing subsegments, calibrated to ~212 queue-lock
	// pairs per processor on 12 CPUs.
	Cutoff int
}

// New returns the generator with calibrated defaults.
func New() *Qsort {
	return &Qsort{Elements: 80_000, Cutoff: 190}
}

// Name implements workload.Program.
func (*Qsort) Name() string { return "Qsort" }

// DefaultNCPU implements workload.Program (Table 1: 12 processors).
func (*Qsort) DefaultNCPU() int { return 12 }

type segment struct{ lo, hi int }

type sorter struct {
	data   []int32
	queue  []segment
	cutoff int
}

// missWindow is the segment size (in elements) above which the traced
// reference order is scrambled. The original sorted a 4 MB array whose
// working set thrashed the 64 KB caches; emitting large-segment scans in a
// permuted order reproduces that miss behaviour (the sort itself is
// unaffected — only the order addresses appear in the trace changes).
const missWindow = 8192

func elemAddr(i int) uint32 { return arrayBase + uint32(i)*4 }

// scanAddr maps the k-th visit of segment [lo,hi) to a trace address:
// sequential for cache-sized segments, permuted for large ones.
func scanAddr(lo, hi, k int) uint32 {
	m := hi - lo
	if m <= missWindow {
		return elemAddr(k)
	}
	return elemAddr(lo + int(uint32(k-lo)*2654435761%uint32(m)))
}

// pop takes a segment under the queue lock (short critical section).
func (s *sorter) pop(g *workload.Gen) (segment, bool) {
	g.SetFunc(fnQueue)
	g.Instr(3)
	g.Lock(queueLock)
	g.Instr(6)
	g.Load(queueBase)      // head index
	g.Load(queueBase + 16) // segment record lo
	g.Load(queueBase + 20) // segment record hi
	g.Store(queueBase)     // new head
	g.Instr(5)
	g.Load(queueBase + 32) // queue length / stats word
	g.Store(queueBase + 32)
	g.Instr(5)
	g.Unlock(queueLock)
	if len(s.queue) == 0 {
		return segment{}, false
	}
	seg := s.queue[len(s.queue)-1]
	s.queue = s.queue[:len(s.queue)-1]
	return seg, true
}

// push adds a segment under the queue lock.
func (s *sorter) push(g *workload.Gen, seg segment) {
	g.SetFunc(fnQueue)
	g.Instr(3)
	g.Lock(queueLock)
	g.Instr(6)
	g.Load(queueBase + 4)   // tail index
	g.Store(queueBase + 48) // segment record
	g.Store(queueBase + 52)
	g.Store(queueBase + 4) // new tail
	g.Instr(4)
	g.Load(queueBase + 32)
	g.Store(queueBase + 32)
	g.Instr(4)
	g.Unlock(queueLock)
	s.queue = append(s.queue, seg)
}

// partition splits data[lo:hi] around a median-of-three pivot, emitting the
// array traffic of the in-place Hoare scheme.
func (s *sorter) partition(g *workload.Gen, lo, hi int) int {
	mid := lo + (hi-lo)/2
	g.Load(elemAddr(lo))
	g.Load(elemAddr(mid))
	g.Load(elemAddr(hi - 1))
	g.Instr(8) // median-of-three
	pivot := median3(s.data[lo], s.data[mid], s.data[hi-1])

	i, j := lo, hi-1
	for {
		for s.data[i] < pivot {
			g.Load(scanAddr(lo, hi, i))
			g.Load(addr.Priv(g.CPU) + uint32(i%64)*4) // spill slot
			g.Instr(6)
			i++
		}
		g.Load(scanAddr(lo, hi, i))
		for s.data[j] > pivot {
			g.Load(scanAddr(lo, hi, j))
			g.Store(addr.Priv(g.CPU) + uint32(j%64)*4)
			g.Instr(6)
			j--
		}
		g.Load(addr.Priv(g.CPU) + 32) // j in its spill slot
		g.Instr(5)
		if i >= j {
			return j + 1
		}
		s.data[i], s.data[j] = s.data[j], s.data[i]
		// The swap re-reads a[i] (tmp = a[i]) immediately before writing
		// both cells, so the stores land on freshly touched lines.
		g.Load(scanAddr(lo, hi, i))
		g.Store(scanAddr(lo, hi, i))
		g.Store(scanAddr(lo, hi, j))
		// Private loop bookkeeping on the stack.
		g.Store(addr.Priv(g.CPU) + 16)
		g.Instr(3)
		i++
		j--
	}
}

func median3(a, b, c int32) int32 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// localSort finishes a small segment on one processor: quicksort down to
// tiny runs, then insertion sort, with no queue traffic.
func (s *sorter) localSort(g *workload.Gen, lo, hi int) {
	for hi-lo > 12 {
		p := s.partition(g, lo, hi)
		if p <= lo || p >= hi {
			break
		}
		// Recurse into the smaller half, loop on the larger.
		if p-lo < hi-p {
			s.localSort(g, lo, p)
			lo = p
		} else {
			s.localSort(g, p, hi)
			hi = p
		}
	}
	// Insertion sort the run.
	for i := lo + 1; i < hi; i++ {
		v := s.data[i]
		g.Load(elemAddr(i))
		j := i - 1
		for j >= lo && s.data[j] > v {
			g.Load(elemAddr(j))
			g.Store(elemAddr(j + 1))
			g.Load(addr.Priv(g.CPU) + uint32(j%64)*4)
			g.Instr(5)
			s.data[j+1] = s.data[j]
			j--
		}
		s.data[j+1] = v
		g.Store(elemAddr(j + 1))
		g.Instr(3)
	}
}

// Generate implements workload.Program.
func (q *Qsort) Generate(p workload.Params) (*trace.Set, error) {
	p = p.WithDefaults(q.DefaultNCPU())
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// The array must dwarf the 64 KB caches at every scale, or the
	// benchmark loses the read-miss behaviour that defines it.
	n := workload.ScaleInt(q.Elements, p.Scale, 48_000)
	cutoff := q.Cutoff
	if cutoff < 32 {
		cutoff = 32
	}
	rng := rand.New(rand.NewSource(p.Seed ^ 0x71737274))
	s := &sorter{data: make([]int32, n), cutoff: cutoff}
	for i := range s.data {
		s.data[i] = int32(rng.Uint32())
	}
	s.queue = append(s.queue, segment{0, n})

	coord := workload.NewCoordinatorFor(p)
	// Work loop: each processor (chosen by virtual time, as the idle
	// processor would win the real race to the queue) pops, partitions,
	// pushes halves or finishes locally.
	for len(s.queue) > 0 {
		g := coord.Next()
		seg, ok := s.pop(g)
		if !ok {
			break
		}
		if seg.hi-seg.lo <= cutoff {
			g.SetFunc(fnPartition)
			s.localSort(g, seg.lo, seg.hi)
			continue
		}
		g.SetFunc(fnPartition)
		g.Instr(6)
		mid := s.partition(g, seg.lo, seg.hi)
		if mid <= seg.lo || mid >= seg.hi {
			// Degenerate split: finish locally.
			s.localSort(g, seg.lo, seg.hi)
			continue
		}
		s.push(g, segment{seg.lo, mid})
		s.push(g, segment{mid, seg.hi})
	}

	// Verify the sort really happened — the generator runs the real
	// algorithm, so a bug here is a bug in the kernel.
	for i := 1; i < n; i++ {
		if s.data[i-1] > s.data[i] {
			panic("qsort workload: array not sorted")
		}
	}
	return coord.Set(q.Name())
}
