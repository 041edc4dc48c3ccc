package machine

import (
	"math/rand"
	"slices"
	"testing"
)

// TestHolderTableBasic exercises insert, accumulate, clear-to-dead and
// in-place revival of a dead slot.
func TestHolderTableBasic(t *testing.T) {
	tab := newHolderTable(64)
	if _, got := tab.lookup(0x1000); got[0] != 0 {
		t.Fatalf("empty table lookup = %#x", got)
	}
	tab.or(0x1000, 3)
	tab.or(0x1000, 7)
	tab.or(0x2000, 0)
	if _, got := tab.lookup(0x1000); got[0] != 1<<3|1<<7 {
		t.Fatalf("lookup(0x1000) = %#x", got)
	}
	if tab.lenLive() != 2 {
		t.Fatalf("lenLive = %d, want 2", tab.lenLive())
	}
	// A sole holder is nobody else's supplier; a second holder is.
	if tab.heldByOther(0x2000, 0) || !tab.heldByOther(0x2000, 1) || !tab.heldByOther(0x1000, 3) {
		t.Fatal("heldByOther misjudges a sole holder or a two-holder line")
	}
	tab.clear(0x1000, 3)
	tab.clear(0x1000, 7)
	if _, got := tab.lookup(0x1000); got[0] != 0 {
		t.Fatalf("cleared line lookup = %#x", got)
	}
	if tab.lenLive() != 1 {
		t.Fatalf("lenLive after clear = %d, want 1", tab.lenLive())
	}
	// Clearing an absent line or an already-dead slot is a no-op.
	tab.clear(0x3000, 0)
	tab.clear(0x1000, 0)
	// A dead slot revives in place.
	tab.or(0x1000, 5)
	if _, got := tab.lookup(0x1000); got[0] != 1<<5 {
		t.Fatalf("revived line lookup = %#x", got)
	}
	if tab.lenLive() != 2 {
		t.Fatalf("lenLive after revival = %d, want 2", tab.lenLive())
	}
}

// TestHolderTableGrowthAndCompaction drives the table far past its
// initial capacity with interleaved deletions and diffs it against a map
// oracle, so growth rehashes (which drop dead slots) cannot lose or
// corrupt entries. Processor ids run to 129, so every slot spans three
// words and each word boundary is crossed.
func TestHolderTableGrowthAndCompaction(t *testing.T) {
	const ncpu = 130
	tab := newHolderTable(ncpu)
	oracle := map[uint32]cpuSet{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		line := uint32(rng.Intn(8192)) << 5
		id := rng.Intn(ncpu)
		if rng.Intn(3) == 0 {
			tab.clear(line, id)
			if set, ok := oracle[line]; ok {
				set.remove(id)
				if set.next(0) < 0 {
					delete(oracle, line)
				}
			}
		} else {
			tab.or(line, id)
			if _, ok := oracle[line]; !ok {
				oracle[line] = newCPUSet(ncpu)
			}
			oracle[line].add(id)
		}
	}
	if tab.lenLive() != len(oracle) {
		t.Fatalf("lenLive = %d, oracle has %d", tab.lenLive(), len(oracle))
	}
	for line, set := range oracle {
		holders := 0
		for id := set.next(0); id >= 0; id = set.next(id + 1) {
			holders++
		}
		if n, got := tab.lookup(line); !slices.Equal(got, set) || n != holders {
			t.Fatalf("lookup(%#x) = %d, %#x, want %d, %#x", line, n, got, holders, set)
		}
		// heldByOther answers from the holder count: true for every id
		// when two or more hold the line, and for all but the sole holder
		// otherwise.
		for id := 0; id < ncpu; id++ {
			want := holders > 1 || (holders == 1 && !set.has(id))
			if got := tab.heldByOther(line, id); got != want {
				t.Fatalf("heldByOther(%#x, %d) = %v, want %v (set %#x)", line, id, got, want, set)
			}
		}
	}
	seen := 0
	tab.forEach(func(line uint32, set cpuSet) {
		seen++
		if !slices.Equal(oracle[line], set) {
			t.Fatalf("forEach(%#x) = %#x, want %#x", line, set, oracle[line])
		}
	})
	if seen != len(oracle) {
		t.Fatalf("forEach visited %d lines, want %d", seen, len(oracle))
	}
	// Absent lines read as empty and are held by nobody.
	if n, got := tab.lookup(0x1); n != 0 || !slices.Equal(got, newCPUSet(ncpu)) || tab.heldByOther(0x1, 0) {
		t.Fatalf("absent line: lookup = %d, %#x, heldByOther = %v", n, got, tab.heldByOther(0x1, 0))
	}
}
