package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"syncsim/internal/flight"
	"syncsim/internal/trace"
	"syncsim/internal/workload"
	"syncsim/internal/workload/addr"
)

// Key addresses one generated trace by the content that determines it:
// the workload's name and its canonicalised generation parameters.
// Generation is deterministic in these, so equal keys mean byte-identical
// traces and the cache never has to hash trace contents.
type Key struct {
	Workload string
	NCPU     int
	Scale    float64
	Seed     int64
}

// KeyFor computes the cache key of a program under the given parameters,
// canonicalising defaults (NCPU 0 → the program's default, Scale 0 → 1)
// so equivalent parameter spellings share one entry.
func KeyFor(prog workload.Program, p workload.Params) Key {
	q := p.WithDefaults(prog.DefaultNCPU())
	return Key{Workload: prog.Name(), NCPU: q.NCPU, Scale: q.Scale, Seed: q.Seed}
}

// CacheInfo describes how one cache lookup was served.
type CacheInfo struct {
	// Hit is true when the trace had already been generated (or was being
	// generated by a concurrent task; the caller waited instead of
	// regenerating).
	Hit bool
	// Generate and Analyze are the phase durations this lookup paid;
	// both are zero on a hit.
	Generate time.Duration
	Analyze  time.Duration
}

// TraceCache memoises generated benchmark traces and their ideal
// statistics, keyed on (workload, Params). Lookups are single-flight:
// concurrent requests for one key generate the trace exactly once and the
// rest wait (see flight.Group for the waiting contract). Every lookup
// returns an independent replay cursor set over the shared read-only
// trace, so callers can simulate concurrently.
//
// A cache built with NewTraceCacheCap is bounded: once the entry count
// would exceed the capacity, the least-recently-used entries are evicted.
// The unbounded variant keeps every trace, which suits one-shot CLI sweeps;
// a long-lived service must cap the cache or its heap grows with every
// distinct request it has ever seen.
type TraceCache struct {
	entries *flight.LRU[Key, *cacheEntry]
	fills   *flight.Group[Key, *cacheEntry]

	hits, misses atomic.Int64
}

// cacheEntry is one generated trace, or the deterministic error its
// generation failed with.
type cacheEntry struct {
	set      *trace.Set // canonical; only ever handed out as clones
	ideal    trace.Summary
	err      error
	generate time.Duration
	analyze  time.Duration
}

// NewTraceCache returns an empty, unbounded cache.
func NewTraceCache() *TraceCache {
	return NewTraceCacheCap(0)
}

// NewTraceCacheCap returns an empty cache bounded to at most capacity
// entries (LRU eviction). A capacity of zero or less means unbounded.
func NewTraceCacheCap(capacity int) *TraceCache {
	return &TraceCache{
		entries: flight.NewLRU[Key, *cacheEntry](capacity),
		fills:   flight.NewGroup[Key, *cacheEntry](context.Background()),
	}
}

// Cap returns the configured capacity; zero means unbounded.
func (c *TraceCache) Cap() int { return c.entries.Cap() }

// Len returns the number of cached traces (including failed generations,
// whose errors are memoised too — generation is deterministic, so a
// retry would fail identically).
func (c *TraceCache) Len() int { return c.entries.Len() }

// CacheStats is a point-in-time view of a cache's effectiveness.
type CacheStats struct {
	// Len and Cap describe occupancy; Cap is zero for unbounded caches.
	Len, Cap int
	// Hits counts lookups served from a completed or in-flight entry,
	// Misses counts lookups that had to generate, and Evictions counts
	// entries displaced by the LRU bound.
	Hits, Misses, Evictions int64
}

// Stats returns the cache's cumulative lookup statistics.
func (c *TraceCache) Stats() CacheStats {
	return CacheStats{
		Len: c.entries.Len(), Cap: c.entries.Cap(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.entries.Evictions(),
	}
}

// Get returns a fresh replay cursor set and the ideal statistics for the
// program under the given parameters, generating and analysing the trace
// on first use. progress, when non-nil, receives a line when a generation
// actually runs. Waiting on a concurrent generation respects ctx, and a
// generation runs on while any lookup still waits for it.
func (c *TraceCache) Get(ctx context.Context, prog workload.Program, p workload.Params, progress func(format string, args ...any)) (*trace.Set, trace.Summary, CacheInfo, error) {
	key := KeyFor(prog, p)
	e, ok := c.entries.Get(key)
	info := CacheInfo{Hit: true}
	if !ok {
		filled := false
		var err error
		e, _, err = c.fills.Do(ctx, key, func(ctx context.Context) (*cacheEntry, error) {
			// A fill that finished between the miss above and this
			// flight has already published its entry.
			if e, ok := c.entries.Get(key); ok {
				return e, nil
			}
			filled = true
			c.misses.Add(1)
			e, err := c.fill(ctx, key, prog, p, progress)
			if err == nil {
				c.entries.Put(key, e)
			}
			return e, err
		})
		if err != nil {
			return nil, trace.Summary{}, CacheInfo{}, err
		}
		if filled {
			info = CacheInfo{Generate: e.generate, Analyze: e.analyze}
		}
	}
	if info.Hit {
		c.hits.Add(1)
	}
	if e.err != nil {
		return nil, trace.Summary{}, CacheInfo{}, e.err
	}
	clone, err := e.set.Clone()
	if err != nil {
		return nil, trace.Summary{}, CacheInfo{}, err
	}
	return clone, e.ideal, info, nil
}

// fill generates and analyses one trace. Generation failures, panics
// included, are deterministic and come back as an entry to memoise.
// Cancellation, polled between phases, is circumstantial: it comes back
// as the error, and nothing is memoised.
func (c *TraceCache) fill(ctx context.Context, key Key, prog workload.Program, p workload.Params, progress func(format string, args ...any)) (e *cacheEntry, err error) {
	e = &cacheEntry{}
	defer func() {
		if v := recover(); v != nil {
			e, err = &cacheEntry{err: flight.Recovered("generate "+key.Workload, v)}, nil
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if progress != nil {
		progress("%s: generating (scale %g, %d cpus)", key.Workload, key.Scale, key.NCPU)
	}
	start := time.Now()
	set, err := prog.Generate(p)
	if err != nil {
		e.err = fmt.Errorf("engine: generate %s: %w", prog.Name(), err)
		return e, nil
	}
	e.generate = time.Since(start)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start = time.Now()
	e.ideal = trace.AnalyzeIdeal(set, addr.Shared).Summarize()
	e.analyze = time.Since(start)
	// The analyser consumed the canonical cursors; rewind them so the set
	// is pristine. Clones always start at the beginning regardless, but a
	// rewound canonical keeps Reset-based callers correct too.
	if err := trace.Reset(set); err != nil {
		e.err = fmt.Errorf("engine: %s: %w", prog.Name(), err)
		return e, nil
	}
	e.set = set
	return e, nil
}
