// Package addr defines the simulated 32-bit address-space layout shared by
// all workload generators, and the shared-data classifier used by the ideal
// analysis (the paper's Table 1 "Shared" column).
//
// Layout:
//
//	0x0010_0000 …  code (instruction fetches; shared read-only text)
//	0x4000_0000 …  private data, one window per processor (stacks, locals)
//	0x8000_0000 …  shared heap (the benchmark's shared structures)
//	0xF000_0000 …  lock words, one cache line apart
package addr

// Region bases. The gaps are deliberately huge so no workload can spill
// from one region into another.
const (
	CodeBase   uint32 = 0x0010_0000
	PrivBase   uint32 = 0x4000_0000
	SharedBase uint32 = 0x8000_0000
	LockBase   uint32 = 0xF000_0000

	// PrivWindow is the private-region size per processor.
	PrivWindow uint32 = 0x0100_0000 // 16 MB each
	// LockStride keeps lock words on distinct cache lines (and distinct
	// sets, mostly) to avoid false sharing between locks.
	LockStride uint32 = 64
	// FuncSize is the code window of one generated "function".
	FuncSize uint32 = 4096
)

// Priv returns the base of cpu's private window.
func Priv(cpu int) uint32 { return PrivBase + uint32(cpu)*PrivWindow }

// Lock returns the lock-word address for a lock id.
func Lock(id uint32) uint32 { return LockBase + id*LockStride }

// Func returns the code base of function fn.
func Func(fn int) uint32 { return CodeBase + uint32(fn)*FuncSize }

// Shared reports whether a data address lies in the shared heap. This is
// the classifier handed to trace.AnalyzeIdeal: lock words are accounted
// separately (as in the paper, lock manipulation is not a data reference).
func Shared(a uint32) bool { return a >= SharedBase && a < LockBase }

// IsCode reports whether an address lies in the text region.
func IsCode(a uint32) bool { return a >= CodeBase && a < PrivBase }

// IsPrivate reports whether a data address lies in some processor's
// private window.
func IsPrivate(a uint32) bool { return a >= PrivBase && a < SharedBase }

// IsLock reports whether an address is a lock word.
func IsLock(a uint32) bool { return a >= LockBase }

// PackedLock returns the lock-word address of id under a deliberately bad
// layout: four-byte stride, so four lock words share one 16-byte cache
// line. The what-if replay service uses it to simulate the false-sharing
// penalty of packing lock words (the inverse of the paper's advice to keep
// synchronisation variables on private lines).
func PackedLock(id uint32) uint32 { return LockBase + id*4 }
