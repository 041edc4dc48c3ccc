package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, or 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest percentile (in steps of 0.1, at most p99.9)
// that has at least ten samples beyond it, and its label. Below twenty
// samples that percentile would not be above the median, so the maximum
// is reported instead, labelled "max".
func tail(xs []float64) (value float64, label string) {
	n := float64(len(xs))
	if n < 20 {
		return quantile(xs, 1), "max"
	}
	q := math.Min(math.Floor(1000*(1-10/n))/1000, 0.999)
	return quantile(xs, q), fmt.Sprintf("p%.1f", 100*q)
}

// latencies collects one class's latencies in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/float64(time.Millisecond)) }

// describe renders "p50 x ms, pNN y ms (n=N)" for the report.
func (l latencies) describe() string {
	if len(l) == 0 {
		return "n=0"
	}
	t, lab := tail(l)
	return fmt.Sprintf("p50 %.3f ms, %s %.3f ms (n=%d)", median(l), lab, t, len(l))
}

// heapProbe measures the memory a workload holds after a fixed amount of
// work: the heap a forced garbage collection marks live once the
// budget-th operation completes (or at the window's end, if sooner). The
// sweep workloads close their one-sweep budget while the sweep's trace
// cache is still referenced, so the value is the memory of every trace the
// sweep generated; the service workloads' caches fill as they work, and a
// fixed budget keeps the value from growing with the host's speed.
type heapProbe struct {
	budget int
	ops    atomic.Int64
	once   sync.Once
	mib    float64
}

const heapLive = "/gc/heap/live:bytes"

func newHeapProbe(budget int) *heapProbe {
	runtime.GC() // start from the set-up's live heap, not its garbage
	return &heapProbe{budget: budget}
}

// opDone counts one completed operation; the budget-th takes the reading.
func (h *heapProbe) opDone() {
	if h.ops.Add(1) == int64(h.budget) {
		h.take()
	}
}

func (h *heapProbe) take() {
	h.once.Do(func() {
		runtime.GC()
		s := []metrics.Sample{{Name: heapLive}}
		metrics.Read(s)
		h.mib = float64(s[0].Value.Uint64()) / (1 << 20)
	})
}

// finish returns the reading in MiB, taking it now if the budget was not
// reached.
func (h *heapProbe) finish() float64 {
	h.take()
	return h.mib
}

// cpuTime returns the processor time the process has used so far, user
// plus system, over all its threads. On a guest whose kernel accounts
// steal time (paravirtual time accounting, as on KVM), this leaves out the
// time the hypervisor ran other guests on this guest's processors, which
// wall time on a shared host includes in phases longer than a run.
func cpuTime() time.Duration {
	u := usage()
	return time.Duration(u.Utime.Nano() + u.Stime.Nano())
}

func usage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// stealTicks returns the steal column of /proc/stat's cpu line (clock
// ticks the hypervisor gave other guests, all processors), or -1 where
// the file does not exist.
func stealTicks() int64 {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// meter measures a window: wall time, processor time, and for the report
// the system time, page faults and steal ticks inside it.
type meter struct {
	t0    time.Time
	cpu0  time.Duration
	ru    syscall.Rusage
	steal int64
}

func startMeter() meter {
	ru := usage()
	return meter{t0: time.Now(), cpu0: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru: ru, steal: stealTicks()}
}

// stop returns the wall and processor time since start and notes them.
func (m meter) stop(o *outcome, what string) (wall, cpu time.Duration) {
	wall = time.Since(m.t0)
	ru := usage()
	cpu = time.Duration(ru.Utime.Nano()+ru.Stime.Nano()) - m.cpu0
	o.notef("%s: wall %.3fs, cpu %.3fs (system %.3fs, %d page faults), steal %d ticks", what, wall.Seconds(), cpu.Seconds(),
		time.Duration(ru.Stime.Nano()-m.ru.Stime.Nano()).Seconds(), ru.Minflt+ru.Majflt-m.ru.Minflt-m.ru.Majflt, stealTicks()-m.steal)
	return wall, cpu
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
