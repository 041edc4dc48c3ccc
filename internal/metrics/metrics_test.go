package metrics

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndTimer(t *testing.T) {
	r := New()
	c := r.Counter("hits")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("hits") != c {
		t.Error("Counter not idempotent")
	}

	tm := r.Timer("phase")
	tm.Observe(10 * time.Millisecond)
	tm.Observe(30 * time.Millisecond)
	if got := tm.Total(); got != 40*time.Millisecond {
		t.Errorf("total = %v", got)
	}
	if got := tm.Count(); got != 2 {
		t.Errorf("count = %d", got)
	}
	if got := tm.Avg(); got != 20*time.Millisecond {
		t.Errorf("avg = %v", got)
	}
	if (&Timer{}).Avg() != 0 {
		t.Error("empty timer Avg should be 0")
	}
}

func TestTimerTime(t *testing.T) {
	var tm Timer
	tm.Time(func() { time.Sleep(time.Millisecond) })
	if tm.Count() != 1 || tm.Total() < time.Millisecond {
		t.Errorf("Time recorded %v/%d", tm.Total(), tm.Count())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Inc()
				r.Timer("t").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Timer("t").Count(); got != 8000 {
		t.Errorf("concurrent timer count = %d, want 8000", got)
	}
}

func TestSnapshot(t *testing.T) {
	r := New()
	r.Counter("a").Add(3)
	r.Timer("b").Observe(time.Second)
	s := r.Snapshot()
	if s.Counters["a"] != 3 {
		t.Errorf("snapshot counter = %d", s.Counters["a"])
	}
	if s.Timers["b"].Total != time.Second || s.Timers["b"].Count != 1 {
		t.Errorf("snapshot timer = %+v", s.Timers["b"])
	}
	str := s.String()
	if !strings.Contains(str, "a 3") {
		t.Errorf("snapshot string missing counter: %q", str)
	}
}

func TestRunReportMerge(t *testing.T) {
	a := RunReport{Generate: time.Second, Simulate: 2 * time.Second, Wall: 3 * time.Second,
		Runs: 1, SimCycles: 4_000_000, SchedSteps: 100, SchedLeasedSteps: 90, SchedRollbacks: 2}
	b := RunReport{Simulate: time.Second, Wall: time.Second, Runs: 1, CacheHits: 1,
		SimCycles: 2_000_000, SchedSteps: 100, SchedLeasedSteps: 60, SchedRollbacks: 1}
	a.Add(b)
	if a.SchedLeasedSteps != 150 || a.SchedRollbacks != 3 || a.LeasedShare() != 0.75 {
		t.Errorf("merged leases = %d steps (share %v), %d rollbacks", a.SchedLeasedSteps, a.LeasedShare(), a.SchedRollbacks)
	}
	if a.Runs != 2 || a.CacheHits != 1 {
		t.Errorf("merged runs/hits = %d/%d", a.Runs, a.CacheHits)
	}
	if a.Simulate != 3*time.Second || a.SimCycles != 6_000_000 {
		t.Errorf("merged simulate/cycles = %v/%d", a.Simulate, a.SimCycles)
	}
	if got := a.Throughput(); got != 2e6 {
		t.Errorf("throughput = %v, want 2e6", got)
	}
	if s := a.String(); !strings.Contains(s, "2 run(s)") || !strings.Contains(s, "1 cache hit(s)") {
		t.Errorf("report string = %q", s)
	}
	if (RunReport{}).Throughput() != 0 || (RunReport{}).LeasedShare() != 0 {
		t.Error("empty report throughput and leased share should be 0")
	}
}

func TestSuiteReport(t *testing.T) {
	r := SuiteReport{
		Wall: 2 * time.Second, Workers: 4, Tasks: 8,
		CacheHits: 6, CacheMisses: 2,
		Busy: 4 * time.Second, SimCycles: 10_000_000,
		SchedIters: 1000, SchedSteps: 2000, SchedLeasedSteps: 1500, SchedRollbacks: 7,
	}
	if got := r.CacheHitRate(); got != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", got)
	}
	if got := r.Occupancy(); got != 0.5 {
		t.Errorf("occupancy = %v, want 0.5", got)
	}
	if got := r.Throughput(); got != 5e6 {
		t.Errorf("throughput = %v, want 5e6", got)
	}
	s := r.String()
	for _, want := range []string{"8 task(s)", "4 worker(s)", "75.0% hit rate", "trace cache",
		"1.50k leased steps (75.0% of steps), 7 rollbacks"} {
		if !strings.Contains(s, want) {
			t.Errorf("suite report string missing %q:\n%s", want, s)
		}
	}
	var zero SuiteReport
	if zero.CacheHitRate() != 0 || zero.Occupancy() != 0 || zero.Throughput() != 0 {
		t.Error("zero report ratios should be 0")
	}
}

// TestSuiteReportAdd sets every RunReport field and checks that
// SuiteReport.Add folds each one into the suite totals. A RunReport field
// left unset here fails the test, so a new counter must be given a value
// below and a sum in Add, the one place the engine and the fleet merge
// both sum through.
func TestSuiteReportAdd(t *testing.T) {
	r := RunReport{
		Generate: 1, Analyze: 2, Simulate: 3, Wall: 4, Runs: 5, CacheHits: 2,
		SimCycles: 7, SchedIters: 8, SchedSteps: 9, SchedLeasedSteps: 10, SchedRollbacks: 11,
	}
	v := reflect.ValueOf(r)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("RunReport.%s is unset: give it a value here and a sum in SuiteReport.Add", v.Type().Field(i).Name)
		}
	}
	var s SuiteReport
	s.Add(r)
	s.Add(r)
	want := SuiteReport{
		Tasks: 2, CacheHits: 4, CacheMisses: 6,
		Generate: 2, Analyze: 4, Simulate: 6, Busy: 8,
		SimCycles: 14, SchedIters: 16, SchedSteps: 18, SchedLeasedSteps: 20, SchedRollbacks: 22,
	}
	if s != want {
		t.Errorf("two folds of %+v:\n got %+v\nwant %+v", r, s, want)
	}
}
