package flight

import (
	"fmt"
	"testing"
)

// TestLRUBound: the cache never exceeds its capacity, evicts the least
// recently used entry first (a Get refreshes recency), and counts every
// eviction.
func TestLRUBound(t *testing.T) {
	c := NewLRU[string, int](3)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
		if c.Len() > 3 {
			t.Fatalf("len = %d > cap 3 after %d inserts", c.Len(), i+1)
		}
	}
	if got := c.Evictions(); got != 7 {
		t.Errorf("evictions = %d, want 7", got)
	}
	if _, ok := c.Get("k0"); ok {
		t.Error("oldest entry not evicted")
	}
	if v, ok := c.Get("k7"); !ok || v != 7 {
		t.Errorf("Get(k7) = %d, %v; want 7, true", v, ok)
	}
	// k7 is now the most recent, so k8 is the LRU entry.
	c.Put("k10", 10)
	if _, ok := c.Get("k8"); ok {
		t.Error("k8 survived although it was least recently used")
	}
	if _, ok := c.Get("k7"); !ok {
		t.Error("k7 evicted although a Get had refreshed it")
	}
	c.Put("k7", 70) // an update is not an insert: nothing is evicted
	if v, _ := c.Get("k7"); v != 70 || c.Len() != 3 || c.Evictions() != 8 {
		t.Errorf("after update: k7 = %d, len %d, evictions %d; want 70, 3, 8", v, c.Len(), c.Evictions())
	}
}

// TestLRUUnboundedAndNil: capacity zero keeps every entry, and a nil
// cache holds nothing.
func TestLRUUnboundedAndNil(t *testing.T) {
	c := NewLRU[int, int](0)
	for i := 0; i < 100; i++ {
		c.Put(i, i)
	}
	if c.Len() != 100 || c.Evictions() != 0 || c.Cap() != 0 {
		t.Errorf("unbounded: len %d, evictions %d, cap %d; want 100, 0, 0", c.Len(), c.Evictions(), c.Cap())
	}

	var off *LRU[int, int]
	off.Put(1, 1)
	if _, ok := off.Get(1); ok || off.Len() != 0 {
		t.Error("nil LRU stored an entry")
	}
}
