// Command perfbench is syncsim's performance ledger. It drives one named
// workload through the repository's public entry points for a fixed
// number of seconds, checks every output against a direct reference run,
// and prints its metrics as one JSON object on the last line of standard
// output:
//
//	python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics of endToEnd. With
// --trace 1 the run measures the workload twice, untraced and then with
// spans around every call into a layer, and prints the per-layer metrics
// of perLayer. Human-readable detail (provenance, class latencies with
// their tail percentile and sample count) goes to the lines before the
// JSON; the spans and the report are written to outDir at exit. See
// README.md for the workloads and what each metric should move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir, relative to the checkout root the benchmark runs from, holds
// the span and report dump of each run and the run's scratch files.
const outDir = ".bench_build/perfbench"

// setupRounds is how many times an untraced run sets up; setup_s is the
// median.
const setupRounds = 3

// setUp boots a workload's system setupRounds times (once when traced:
// setup_s comes from untraced runs), closes every system but the last,
// and returns that one with the median processor time of a boot in
// seconds, noting the median wall time beside it.
func setUp[S interface{ close() }](e *env, o *outcome, boot func() (S, error)) (S, float64, error) {
	rounds := setupRounds
	if e.rec != nil {
		rounds = 1
	}
	var sut S
	var cpus, walls []float64
	for i := 0; i < rounds; i++ {
		if i > 0 {
			sut.close()
		}
		w0, c0 := time.Now(), cpuTime()
		s, err := boot()
		if err != nil {
			var none S
			return none, 0, err
		}
		cpus = append(cpus, (cpuTime() - c0).Seconds())
		walls = append(walls, time.Since(w0).Seconds())
		sut = s
	}
	o.notef("set-up, median of %d: cpu %.3fs, wall %.3fs", rounds, median(cpus), median(walls))
	return sut, median(cpus), nil
}

// env is what a workload run receives: the seed, the window length, a
// scratch directory inside the checkout, and the span recorder (nil when
// untraced).
type env struct {
	seed    int64
	window  time.Duration
	scratch string
	rec     *recorder
}

// rng returns the deterministic random stream of one named input stream
// of the seed, so adding a stream never shifts another.
func (e *env) rng(stream string) *rand.Rand {
	h := sha256.Sum256([]byte(stream))
	var s uint64
	for _, b := range h[:8] {
		s = s<<8 | uint64(b)
	}
	return rand.New(rand.NewPCG(uint64(e.seed), s))
}

// outcome is one measured phase of a workload.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64 // keyed by endToEnd names
	layer             map[string]float64 // per-layer metrics this phase measured
	rate              float64            // primary throughput, for trace_overhead_pct
	answers           map[string]string  // answer hash by request, compared traced vs untraced
	notes             []string           // report lines
	tails             map[string]string  // tail metric → which percentile it is, and n
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, tails: map[string]string{}}
}

// setTail stores the tail of xs as metric name in into, and notes which
// percentile that is and over how many samples.
func (o *outcome) setTail(into map[string]float64, name string, xs latencies) {
	v, label := tail(xs)
	into[name] = v
	o.tails[name] = fmt.Sprintf("%s, n=%d", label, len(xs))
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, e *env) (*outcome, error){
	"paper-suite":  runPaperSuite,
	"serve-mix":    runServeMix,
	"fleet-sweep":  runFleetSweep,
	"wide-scaling": runWideScaling,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: paper-suite, serve-mix, fleet-sweep, wide-scaling")
	seed := fl.Int64("seed", 1, "seed of every generated input")
	seconds := fl.Int("seconds", 10, "length of the measured window, in seconds")
	traced := fl.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(outDir, "scratch-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	e := &env{seed: *seed, window: time.Duration(*seconds) * time.Second, scratch: scratch}

	prov := provenance(*name, *seed, *seconds, *traced)
	res := resultJSON{Metrics: map[string]metricJSON{}}
	var notes []string
	var spans []span

	base, err := runWorkload(ctx, e)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.Attempted, res.Failed = base.attempted, base.failed
	notes = append(notes, base.notes...)
	tails := base.tails
	if *traced == 0 {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricJSON{Value: base.e2e[m.name], Unit: m.unit}
		}
	} else {
		e.rec = newRecorder()
		tr, err := runWorkload(ctx, e)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: traced phase:", err)
			return 1
		}
		spans = e.rec.snapshot()
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		for k, want := range base.answers {
			if got, ok := tr.answers[k]; ok && got != want {
				res.Failed++
				notes = append(notes, "MISMATCH: traced answer differs from the untraced phase for "+k)
			}
		}
		for _, n := range tr.notes {
			notes = append(notes, "traced: "+n)
		}
		// A metric both phases measure is taken from the untraced one.
		vals := map[string]float64{}
		for k, v := range tr.layer {
			vals[k] = v
		}
		for k, v := range base.layer {
			vals[k] = v
		}
		for k, v := range tr.tails {
			if _, ok := tails[k]; !ok {
				tails[k] = v
			}
		}
		for l, pct := range layerShares(spans) {
			vals[l+".self_pct"] = pct
		}
		vals["trace_overhead_pct"] = 100 * (ratio(base.rate, tr.rate) - 1)
		for _, m := range perLayer {
			res.Metrics[m.name] = metricJSON{Value: vals[m.name], Unit: m.unit}
		}
	}
	res.Correct = res.Failed == 0

	for _, line := range prov {
		fmt.Fprintln(stdout, "#", line)
	}
	for _, line := range notes {
		fmt.Fprintln(stdout, "#", line)
	}
	fmt.Fprintf(stdout, "# ops %d, ops_failed %d\n", res.Attempted, res.Failed)
	for _, k := range sortedKeys(res.Metrics) {
		line := fmt.Sprintf("# %-40s %14.6g %s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
		if t, ok := tails[k]; ok {
			line += " (" + t + ")"
		}
		fmt.Fprintln(stdout, line)
	}
	if err := dump(outDir, *name, *seed, *traced, prov, notes, res, spans); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing report:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func hashString(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// dump writes the report and the spans of the run as one JSON file.
func dump(dir, name string, seed int64, traced int, prov, notes []string, res resultJSON, spans []span) error {
	doc := struct {
		Provenance []string   `json:"provenance"`
		Notes      []string   `json:"notes"`
		Result     resultJSON `json:"result"`
		Spans      []span     `json:"spans,omitempty"`
	}{prov, notes, res, spans}
	blob, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, traced)), blob, 0o644)
}

// provenance describes the host, toolchain and source of a run.
func provenance(name string, seed int64, seconds, traced int) []string {
	return []string{
		fmt.Sprintf("workload %s, seed %d, window %ds, trace %d", name, seed, seconds, traced),
		fmt.Sprintf("nproc %d, GOMAXPROCS %d, cpu %q, %s %s/%s",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		"source " + sourceDigest("."),
	}
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the code under test: the git commit when the
// checkout has one, and always a sha256 over the module's Go sources and
// go.mod (benchmark checkouts need not be git repositories).
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(blob))
		h.Write(blob)
		return nil
	})
	out := "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", r)); err == nil {
				ref = strings.TrimSpace(string(b))
			}
		}
		out += ", git " + ref
	}
	return out
}
