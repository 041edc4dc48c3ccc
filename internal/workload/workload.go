// Package workload is the framework the six benchmark generators are built
// on. The paper traced real parallel programs with MPTrace on a Sequent
// Symmetry; those traces are unobtainable, so each benchmark is re-created
// as an executable kernel (Barnes-Hut, simulated annealing, parallel
// quicksort, …) that runs the real algorithm over synthetic inputs at
// *generation time* and emits an MPTrace-like per-processor event stream.
//
// The key idea mirrors trace-driven simulation itself: generation happens
// under a virtual "ideal" clock (every instruction costs its no-wait-state
// cycles), producing a fixed interleaving of work across processors exactly
// like a trace of a real run. The machine simulator then replays those
// streams against the modelled hardware, where cache misses, bus contention
// and lock contention emerge.
package workload

import (
	"fmt"
	"math/rand"

	"syncsim/internal/trace"
	"syncsim/internal/workload/addr"
)

// Params configures a generation run.
type Params struct {
	// NCPU is the number of processors; 0 selects the benchmark default
	// (the processor counts of the paper's Table 1).
	NCPU int
	// Scale linearly scales the amount of work (threads, bodies, moves,
	// array sizes). 1.0 reproduces the paper's trace magnitudes; tests
	// and benchmarks use small fractions.
	Scale float64
	// Seed makes generation deterministic. The default 0 is a valid seed.
	Seed int64

	// stream, when non-nil, hands the generators' Compact records to a
	// bounded streaming ring in chunks instead of keeping the whole trace.
	// Only StreamTraces sets it; it is invisible to the wire (unexported)
	// and to cache keys.
	stream *streamPlan
}

// WithDefaults fills in zero fields.
func (p Params) WithDefaults(defaultNCPU int) Params {
	if p.NCPU == 0 {
		p.NCPU = defaultNCPU
	}
	if p.Scale == 0 {
		p.Scale = 1
	}
	return p
}

// Validate rejects unusable parameters.
func (p Params) Validate() error {
	if p.NCPU < 1 {
		return fmt.Errorf("workload: NCPU must be ≥ 1, got %d", p.NCPU)
	}
	if p.Scale < 0 {
		return fmt.Errorf("workload: negative scale %v", p.Scale)
	}
	return nil
}

// Program is one benchmark generator.
type Program interface {
	// Name returns the benchmark name as used in the paper's tables.
	Name() string
	// DefaultNCPU returns the processor count the paper ran it with.
	DefaultNCPU() int
	// Generate produces a fresh trace set for the given parameters.
	Generate(p Params) (*trace.Set, error)
}

// Gen is the per-processor event emitter. It models an instruction stream:
// every emitted instruction fetches from a small per-function code window
// and costs 2-4 cycles (the MPTrace traces carried exactly this per-
// instruction cycle information); data-referencing instructions carry their
// execution cycles fused with the reference event.
type Gen struct {
	CPU int
	// VT is the processor's virtual ideal time: the cycle count a
	// no-miss, no-contention machine would have reached. Coordinators
	// use it to interleave work across processors.
	VT uint64

	tr      trace.Compact  // the events recorded and not yet handed to ring
	ring    *trace.RingSet // non-nil when streaming: tr goes out in chunks
	handed  int            // events already handed to ring
	rng     *rand.Rand
	pc      uint32
	fn      uint32
	held    int // locks currently held (for nesting sanity)
	cpiMin  uint32
	cpiSpan uint32
}

// NewGen creates a generator for one processor.
func NewGen(cpu int, seed int64) *Gen {
	g := &Gen{
		CPU:     cpu,
		rng:     rand.New(rand.NewSource(seed + int64(cpu)*1_000_003)),
		cpiMin:  2,
		cpiSpan: 2,
	}
	g.SetFunc(0)
	return g
}

// SetCPI sets the per-instruction cycle range [min, max] used from now on,
// letting each benchmark match its traced cycles-per-instruction (FullConn
// ran at ~4 CPI, the C programs near 2.4).
func (g *Gen) SetCPI(min, max uint32) {
	if min < 1 || max < min {
		panic("workload: invalid CPI range")
	}
	g.cpiMin = min
	g.cpiSpan = max - min + 1
}

// Rand exposes the generator's deterministic random stream for workload
// logic (input data, move selection, …).
func (g *Gen) Rand() *rand.Rand { return g.rng }

// SetFunc switches the code window instructions are fetched from,
// simulating a call into a different function.
func (g *Gen) SetFunc(fn int) {
	g.fn = uint32(fn)
	g.pc = addr.Func(fn)
}

func (g *Gen) instrCycles() uint32 {
	return g.cpiMin + uint32(g.rng.Intn(int(g.cpiSpan)))
}

func (g *Gen) nextPC() uint32 {
	pc := g.pc
	g.pc += 4
	if g.pc >= addr.Func(int(g.fn))+addr.FuncSize {
		g.pc = addr.Func(int(g.fn)) // loop within the function window
	}
	return pc
}

// Instr emits n plain (non-memory) instructions.
func (g *Gen) Instr(n int) {
	for i := 0; i < n; i++ {
		cyc := g.instrCycles()
		g.tr.Add(trace.IFetchAfter(cyc, g.nextPC()))
		g.VT += uint64(cyc)
		g.handOff()
	}
}

// Load emits one data-load instruction referencing a.
func (g *Gen) Load(a uint32) {
	cyc := g.instrCycles()
	g.tr.Add(trace.ReadAfter(cyc, a))
	g.VT += uint64(cyc)
	g.handOff()
}

// Store emits one data-store instruction referencing a.
func (g *Gen) Store(a uint32) {
	cyc := g.instrCycles()
	g.tr.Add(trace.WriteAfter(cyc, a))
	g.VT += uint64(cyc)
	g.handOff()
}

// Lock emits a lock acquisition of lock id.
func (g *Gen) Lock(id uint32) {
	g.tr.Add(trace.Lock(id, addr.Lock(id)))
	g.held++
	g.handOff()
}

// Unlock emits a lock release of lock id.
func (g *Gen) Unlock(id uint32) {
	if g.held == 0 {
		panic(fmt.Sprintf("workload: cpu %d unlock with no lock held", g.CPU))
	}
	g.tr.Add(trace.Unlock(id, addr.Lock(id)))
	g.held--
	g.handOff()
}

// handOff passes the recorded events to the ring once they fill a chunk.
// It is small enough to inline, so a materialised run pays one nil test
// per event and no call.
func (g *Gen) handOff() {
	if g.ring != nil && g.tr.Len() >= streamChunk {
		g.flush()
	}
}

// flush hands the recorded events to the ring as one chunk, which the ring
// copies at its exact size, and records the next chunk in the same buffer.
func (g *Gen) flush() {
	g.handed += g.tr.Len()
	g.ring.AddChunk(g.CPU, &g.tr)
	g.tr.Reset()
}

// Events returns the number of events emitted so far.
func (g *Gen) Events() int { return g.handed + g.tr.Len() }

// Coordinator interleaves work across processors by virtual time: Next
// returns the processor that is furthest behind, which is exactly the
// processor that would grab the next unit of work in the traced run.
type Coordinator struct {
	Gens []*Gen

	stream *streamPlan // non-nil when generation streams into a ring
}

// NewCoordinator builds ncpu generators with related seeds.
func NewCoordinator(ncpu int, seed int64) *Coordinator {
	c := &Coordinator{Gens: make([]*Gen, ncpu)}
	for i := range c.Gens {
		c.Gens[i] = NewGen(i, seed)
	}
	return c
}

// NewCoordinatorFor builds the coordinator for a full parameter set. It is
// what benchmarks should call: when p carries a stream plan (set by
// StreamTraces) the generators hand their records to the plan's bounded
// ring instead of keeping them, with identical event sequences either way.
func NewCoordinatorFor(p Params) *Coordinator {
	c := NewCoordinator(p.NCPU, p.Seed)
	if p.stream != nil {
		p.stream.bind(c)
	}
	return c
}

// Next returns the generator with the smallest virtual time (ties go to
// the lowest CPU index, keeping generation deterministic).
func (c *Coordinator) Next() *Gen {
	best := c.Gens[0]
	for _, g := range c.Gens[1:] {
		if g.VT < best.VT {
			best = g
		}
	}
	return best
}

// MaxVT returns the largest virtual time across processors.
func (c *Coordinator) MaxVT() uint64 {
	var max uint64
	for _, g := range c.Gens {
		if g.VT > max {
			max = g.VT
		}
	}
	return max
}

// Set assembles the final trace set, checking that every generator
// released all its locks (a leaked lock would deadlock the machine).
//
// Each CPU's trace is handed out as its own exact-size copy, so a cached
// set keeps neither the generators (and their random sources) nor the
// append slack of their buffers alive.
//
// For a streaming coordinator the events already went into the ring; the
// returned set is the ring's consumer side, and the final partial chunks
// are handed over here. The driver — not the benchmark — closes the ring.
func (c *Coordinator) Set(name string) (*trace.Set, error) {
	for i, g := range c.Gens {
		if g.held != 0 {
			return nil, fmt.Errorf("workload %s: cpu %d ends with %d locks held", name, i, g.held)
		}
	}
	if c.stream != nil {
		for _, g := range c.Gens {
			g.flush()
		}
		return c.stream.ring.Set(), nil
	}
	cpus := make([]*trace.Compact, len(c.Gens))
	for i, g := range c.Gens {
		cpus[i] = g.tr.Trim()
	}
	return trace.CompactSet(name, cpus), nil
}

// ScaleInt scales n by the factor, keeping at least min.
func ScaleInt(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		return min
	}
	return v
}
