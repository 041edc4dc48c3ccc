package flight

import (
	"container/list"
	"sync"
)

// LRU is a cache bounded by entry count: once a Put would exceed the
// capacity, the least recently used entries are evicted. It is safe for
// concurrent use. Values are shared, not copied, so callers store values
// they never mutate afterwards.
//
// A nil *LRU holds nothing: Get misses, Put drops and Len is zero.
// Owners use it to express "caching disabled".
type LRU[K comparable, V any] struct {
	mu        sync.Mutex
	cap       int        // 0 = unbounded
	order     *list.List // of *lruEntry; front = most recently used
	items     map[K]*list.Element
	evictions int64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU returns an empty cache bounded to capacity entries; a capacity of
// zero or less means unbounded.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{cap: max(capacity, 0), order: list.New(), items: make(map[K]*list.Element)}
}

// Get returns key's value and marks it most recently used.
func (l *LRU[K, V]) Get(key K) (val V, ok bool) {
	if l == nil {
		return val, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		return val, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Put stores val under key as the most recently used entry, replacing any
// previous value, and evicts down to the capacity.
func (l *LRU[K, V]) Put(key K, val V) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		l.order.MoveToFront(el)
		return
	}
	l.items[key] = l.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	for l.cap > 0 && l.order.Len() > l.cap {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.items, oldest.Value.(*lruEntry[K, V]).key)
		l.evictions++
	}
}

// Len returns the number of entries.
func (l *LRU[K, V]) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len()
}

// Cap returns the capacity; zero means unbounded.
func (l *LRU[K, V]) Cap() int {
	return l.cap
}

// Evictions returns how many entries the capacity bound has displaced.
func (l *LRU[K, V]) Evictions() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evictions
}
