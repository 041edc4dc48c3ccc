package machine

import "math/bits"

// holderTable is the holder index: line address → set of processors
// whose cache holds the line. It replaces the map that originally backed
// the index because the index sits on the per-transaction hot path —
// applySnoops and hasSupplier read it for every bus transaction, and the
// caches' residency hooks write it on every fill, eviction and
// invalidation. An open-addressed table with fibonacci hashing makes each
// of those a handful of array probes with no hashing interface or bucket
// machinery.
//
// A slot is 1+nw consecutive words of one flat array, nw = ⌈NCPU/64⌉: a
// header packing the line address, an in-use flag and the holder count,
// then the line's holder set. The count answers "empty?" and "anyone
// besides me?" without a loop over words, and or/clear touch the header
// and one set word. Keeping header and set adjacent means a probe and the
// update it leads to share a cache line: the index is sized by its memory
// footprint as much as by its instruction count, since the engine runs
// several machines side by side on shared caches.
//
// Deletion is lazy: clearing a line's last holder leaves the slot in place
// with an empty set (reads treat it as absent), and dead slots are dropped
// wholesale at the next growth rehash. Residency churn — invalidation
// storms killing and refilling the same lines — therefore never degrades
// probe lengths the way tombstone accumulation would: a re-fill of a dead
// line revives its slot in place, and only genuinely abandoned lines ride
// to the next rehash. Never-used and dead slots both have an all-zero set
// and a zero count, which lets reads skip the in-use check.
type holderTable struct {
	slots  []uint64 // slot i is slots[i*stride : (i+1)*stride]
	stride int      // 1 + words per holder set
	mask   uint32   // slot count - 1
	shift  uint     // 32 - log2(slot count); fibonacci hash shift
	live   int      // used slots with at least one holder
	used   int      // used slots, live or dead
}

// Slot header layout: the line address in bits 0-31, the in-use flag in
// bit 32, the holder count from bit 33 up.
const (
	hdrUsed      = 1 << 32
	hdrCountUnit = 1 << 33
)

const holderTableMinSize = 1024 // slots; power of two

func newHolderTable(ncpu int) *holderTable {
	t := &holderTable{stride: 1 + (ncpu+63)/64}
	t.init(holderTableMinSize)
	return t
}

func (t *holderTable) init(size int) {
	t.slots = make([]uint64, size*t.stride)
	t.mask = uint32(size - 1)
	t.shift = uint(32 - bits.TrailingZeros(uint(size)))
	t.live = 0
	t.used = 0
}

// slot probes for line, returning the offset of its slot's header (used
// with this key) or of the first never-used slot where it would go.
func (t *holderTable) slot(line uint32) int {
	i := (line * 2654435769) >> t.shift
	for {
		b := int(i) * t.stride
		if h := t.slots[b]; h&hdrUsed == 0 || uint32(h) == line {
			return b
		}
		i = (i + 1) & t.mask
	}
}

// get returns line's holder set as a view into the table (all zero when
// absent or dead). The view is valid only until the next or, which may
// rehash: callers that keep it across residency changes copy it first.
func (t *holderTable) get(line uint32) cpuSet {
	b := t.slot(line)
	return cpuSet(t.slots[b+1 : b+t.stride])
}

// count returns the number of processors holding line.
func (t *holderTable) count(line uint32) int { return int(t.slots[t.slot(line)] / hdrCountUnit) }

// heldByOther reports whether any processor other than id holds line.
func (t *holderTable) heldByOther(line uint32, id int) bool {
	b := t.slot(line)
	switch h := t.slots[b]; {
	case h < hdrCountUnit:
		return false
	case h >= 2*hdrCountUnit:
		return true
	}
	return t.slots[b+1+id>>6]&(1<<uint(id&63)) == 0
}

// or adds processor id to line's holder set, inserting the line if needed.
func (t *holderTable) or(line uint32, id int) {
	b := t.slot(line)
	h := t.slots[b]
	if h&hdrUsed == 0 {
		h = hdrUsed | uint64(line)
		t.used++
	}
	w, bit := &t.slots[b+1+id>>6], uint64(1)<<uint(id&63)
	if *w&bit == 0 {
		*w |= bit
		if h < hdrCountUnit {
			t.live++
		}
		h += hdrCountUnit
	}
	t.slots[b] = h
	// Grow at 3/4 occupancy (dead slots included — they lengthen probes
	// just like live ones until a rehash drops them).
	if t.used*4 >= int(t.mask+1)*3 {
		t.rehash()
	}
}

// clear removes processor id from line's holder set. The slot goes dead
// (not deleted) when its last holder leaves.
func (t *holderTable) clear(line uint32, id int) {
	b := t.slot(line)
	w, bit := &t.slots[b+1+id>>6], uint64(1)<<uint(id&63)
	if *w&bit == 0 {
		return // absent line (a never-used slot's set is zero) or not a holder
	}
	*w &^= bit
	if t.slots[b] -= hdrCountUnit; t.slots[b] < hdrCountUnit {
		t.live--
	}
}

// rehash rebuilds the table keeping only live entries, at least doubling
// capacity when the live set alone justifies it.
func (t *holderTable) rehash() {
	size := int(t.mask + 1)
	for t.live*4 >= size*3 {
		size *= 2
	}
	old := t.slots
	t.init(size)
	for b := 0; b < len(old); b += t.stride {
		if old[b] >= hdrCountUnit {
			j := t.slot(uint32(old[b]))
			copy(t.slots[j:j+t.stride], old[b:b+t.stride])
			t.used++
		}
	}
	t.live = t.used
}

// forEach visits every live (line, holder set) pair in unspecified order.
// The set is a view into the table; fn must not modify the table.
func (t *holderTable) forEach(fn func(line uint32, set cpuSet)) {
	for b := 0; b < len(t.slots); b += t.stride {
		if t.slots[b] >= hdrCountUnit {
			fn(uint32(t.slots[b]), cpuSet(t.slots[b+1:b+t.stride]))
		}
	}
}

// lenLive returns the number of lines with at least one holder.
func (t *holderTable) lenLive() int { return t.live }
