package machine

import "math/bits"

// cpuSet is a set of processor ids stored as ⌈NCPU/64⌉ words: id lives in
// bit id%64 of word id/64. It backs every per-processor set the machine
// keeps — the holder index's slots, the calendar's near and dirty sets,
// the processors with buffered bus work, and applySnoops' snapshot of a
// line's holders — at any machine width.
// On the paper's machines (at most 20 processors) it is a single word, and
// each operation touches exactly one word.
type cpuSet []uint64

func newCPUSet(ncpu int) cpuSet { return make(cpuSet, (ncpu+63)/64) }

func (s cpuSet) add(id int)      { s[id>>6] |= 1 << uint(id&63) }
func (s cpuSet) remove(id int)   { s[id>>6] &^= 1 << uint(id&63) }
func (s cpuSet) has(id int) bool { return s[id>>6]&(1<<uint(id&63)) != 0 }

func (s cpuSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// next returns the smallest id >= from in the set, or -1 when there is
// none. Walking with next(id+1) visits ids in ascending order, and — as a
// cursor — sees an id added above it mid-walk but not one added at or
// below it.
func (s cpuSet) next(from int) int {
	w := from >> 6
	if w >= len(s) {
		return -1
	}
	if m := s[w] >> uint(from&63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	for w++; w < len(s); w++ {
		if s[w] != 0 {
			return w<<6 + bits.TrailingZeros64(s[w])
		}
	}
	return -1
}
