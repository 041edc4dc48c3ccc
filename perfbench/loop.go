package main

import (
	"context"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// opStats counts what the benchmark's transport saw for one client call:
// every attempt the client made, and every attempt that did not end in a
// 2xx answer (a 429 the client retried past still counts).
type opStats struct{ attempts, bad atomic.Int32 }

type opKey struct{}

// benchTransport is the benchmark's own HTTP transport. It counts
// attempts per client call and, when traced, stamps the enclosing span
// and request id onto the outgoing headers.
type benchTransport struct {
	base  http.RoundTripper
	stamp bool
}

func (t benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	st, _ := req.Context().Value(opKey{}).(*opStats)
	if st != nil {
		st.attempts.Add(1)
	}
	if ref := refFrom(req.Context()); t.stamp && ref.req != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(headerReq, strconv.FormatUint(ref.req, 10))
		req.Header.Set(headerParent, strconv.FormatUint(ref.id, 10))
	}
	resp, err := t.base.RoundTrip(req)
	if st != nil && (err != nil || resp.StatusCode/100 != 2) {
		st.bad.Add(1)
	}
	return resp, err
}

// httpClient returns a client with its own loopback connection pool over
// the benchmark's transport.
func httpClient(rec *recorder) *http.Client {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConnsPerHost = 16
	return &http.Client{Transport: benchTransport{base: base, stamp: rec != nil}}
}

// listener serves a handler on a loopback port until closed.
type listener struct {
	url string
	hs  *http.Server
	err chan error
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, err: make(chan error, 1)}
	go func() { l.err <- l.hs.Serve(ln) }()
	return l, nil
}

// close stops the listener at once and waits for its serve loop to
// return. Every call the benchmark made has returned by then; a graceful
// Shutdown would instead wait out each connection a client opened but
// never used, which http.Server counts as idle only after 5 s.
func (l *listener) close() {
	l.hs.Close()
	<-l.err // Serve returns http.ErrServerClosed once closed
}

// op is one completed client call.
type op struct {
	class   string
	latency time.Duration
	err     error
	stats   *opStats
	req     uint64 // span request id (traced runs)
	index   int    // position in the client's sequence
	client  int
	resp    any           // decoded answer, for the checks
	cpu     time.Duration // the process's processor time once the op was kept
}

func (o op) failed() bool { return o.err != nil || o.stats.bad.Load() > 0 }

// rendezvous lets the two clients send a paired request at once: each
// arrival waits for the other, or for the end of the window.
type rendezvous struct {
	mu    sync.Mutex
	count map[int]int
	ch    map[int]chan struct{}
}

func newRendezvous() *rendezvous {
	return &rendezvous{count: map[int]int{}, ch: map[int]chan struct{}{}}
}

func (r *rendezvous) meet(id int, stop <-chan struct{}) {
	r.mu.Lock()
	ch, ok := r.ch[id]
	if !ok {
		ch = make(chan struct{})
		r.ch[id] = ch
	}
	r.count[id]++
	if r.count[id] == 2 {
		close(ch)
	}
	r.mu.Unlock()
	select {
	case <-ch:
	case <-stop:
	}
}

// closedLoop runs clients callers, each sending its sequence one call at
// a time, in blocks of block items, until the window ends; the block in
// flight at the deadline completes, so a client's ops hold each class of
// a block in its exact proportion however far the window got. call
// performs item i of client c and returns its answer. after runs outside
// the call's timing and returns what the op keeps of the answer for the
// checks (reducing it keeps the held ops from growing the heap
// peak_heap_mib reads). It returns every op once the last one has
// completed.
func closedLoop(ctx context.Context, rec *recorder, window time.Duration, clients, block int,
	pairOf func(c, i int) int, classOf func(c, i int) string,
	call func(ctx context.Context, c, i int) (any, error), after func(resp any, err error) any) []op {
	stop := make(chan struct{})
	timer := time.AfterFunc(window, func() { close(stop) })
	defer timer.Stop()
	rv := newRendezvous()
	var (
		mu  sync.Mutex
		all []op
		wg  sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i%block == 0 {
					select {
					case <-stop:
						return
					default:
					}
				}
				if ctx.Err() != nil {
					return
				}
				if id := pairOf(c, i); id > 0 && clients > 1 {
					rv.meet(id, stop)
				}
				st := &opStats{}
				cctx, cancel := context.WithTimeout(context.WithValue(ctx, opKey{}, st), time.Minute)
				cctx, sp := rec.begin(cctx, "client", classOf(c, i))
				t0 := time.Now()
				resp, err := call(cctx, c, i)
				d := time.Since(t0)
				sp.end()
				cancel()
				resp = after(resp, err)
				mu.Lock()
				all = append(all, op{class: classOf(c, i), latency: d, err: err, stats: st,
					req: refFrom(cctx).req, index: i, client: c, resp: resp, cpu: cpuTime()})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return all
}
