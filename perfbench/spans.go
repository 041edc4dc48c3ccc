package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one call into a layer, recorded by the benchmark around the
// call (never inside the program). Spans of one client request share Req.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: every method is a no-op and no wrapper is installed.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	reqs  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// spanRef is what a context carries: the enclosing span and its request.
type spanRef struct{ id, req uint64 }

type spanKey struct{}

func refFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// open is a span that has started but not ended.
type open struct {
	r *recorder
	s span
}

// begin starts a span whose parent is the span carried by ctx. A zero
// request id in ctx starts a new request.
func (r *recorder) begin(ctx context.Context, layer, name string) (context.Context, *open) {
	if r == nil {
		return ctx, nil
	}
	ref := refFrom(ctx)
	if ref.req == 0 {
		ref.req = r.reqs.Add(1)
	}
	o := &open{r: r, s: span{ID: r.ids.Add(1), Parent: ref.id, Req: ref.req, Layer: layer, Name: name, Start: r.now()}}
	return context.WithValue(ctx, spanKey{}, spanRef{id: o.s.ID, req: ref.req}), o
}

// end closes the span and returns it (the zero span when untraced).
func (o *open) end() span {
	if o == nil {
		return span{}
	}
	o.s.End = o.r.now()
	o.r.add(o.s)
	return o.s
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// part is one phase of a payload's own report, attributed to a layer.
type part struct {
	layer, name string
	d           time.Duration
}

// addChildren records spans reconstructed from a payload's own phase
// report (generate, analyze, simulate, engine rest) inside parent, laid
// end to end from the parent's start so they never overlap each other.
func (r *recorder) addChildren(parent span, parts []part) {
	if r == nil || parent.ID == 0 {
		return
	}
	at := parent.Start
	for _, p := range parts {
		if p.d <= 0 {
			continue
		}
		end := at + int64(p.d)
		if end > parent.End {
			end = parent.End
		}
		r.add(span{ID: r.ids.Add(1), Parent: parent.ID, Req: parent.Req, Layer: p.layer, Name: p.name, Start: at, End: end})
		at = end
	}
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// Headers the benchmark's own transport stamps on every request it
// sends, and its handler middleware reads back.
const (
	headerReq    = "X-Perfbench-Request"
	headerParent = "X-Perfbench-Parent"
)

// owner tracks the handler spans a process-like component (a backend,
// the coordinator) currently has open, so calls that carry no context —
// store.Get/Put — can be parented on one of them.
type owner struct {
	mu   sync.Mutex
	open map[uint64]spanRef
}

func newOwner() *owner { return &owner{open: map[uint64]spanRef{}} }

func (o *owner) enter(ref spanRef) {
	o.mu.Lock()
	o.open[ref.id] = ref
	o.mu.Unlock()
}

func (o *owner) leave(id uint64) {
	o.mu.Lock()
	delete(o.open, id)
	o.mu.Unlock()
}

// current returns the most recently opened span, or the zero ref.
func (o *owner) current() spanRef {
	o.mu.Lock()
	defer o.mu.Unlock()
	var best spanRef
	for _, ref := range o.open {
		if ref.id > best.id {
			best = ref
		}
	}
	return best
}

// middleware wraps a handler in a span per request. The span's parent and
// request id come from the stamped headers; a request that arrives
// unstamped (the coordinator runs cells under its own job context) is
// parented on the span fallback has open — with one caller, the only
// sweep in flight. own, when non-nil, tracks the open handler spans for
// the store wrapper; layerOf names the layer serving a path. Untraced
// runs never install it.
func (r *recorder) middleware(own, fallback *owner, layerOf func(path string) string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var ref spanRef
		ref.req, _ = strconv.ParseUint(req.Header.Get(headerReq), 10, 64)
		ref.id, _ = strconv.ParseUint(req.Header.Get(headerParent), 10, 64)
		if ref.req == 0 && fallback != nil {
			ref = fallback.current()
		}
		ctx := context.WithValue(req.Context(), spanKey{}, ref)
		ctx, o := r.begin(ctx, layerOf(req.URL.Path), req.URL.Path)
		if own != nil {
			own.enter(refFrom(ctx))
			defer own.leave(o.s.ID)
		}
		defer o.end()
		next.ServeHTTP(w, req.WithContext(ctx))
	})
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval its children cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// layerShares returns each layer's share of the self time spent in the
// repository's layers, in percent (the benchmark's own "bench" spans are
// left out). Layers absent from the spans read 0.
func layerShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byLayer := map[string]time.Duration{}
	var total time.Duration
	for _, s := range spans {
		byLayer[s.Layer] += self[s.ID]
	}
	for _, l := range layers {
		total += byLayer[l]
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = 100 * float64(byLayer[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}
