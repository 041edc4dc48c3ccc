package predict

import (
	"context"
	"fmt"
	"math"
	"sort"

	"syncsim/internal/core"
	"syncsim/internal/engine"
	"syncsim/internal/machine"
	"syncsim/internal/trace"
	"syncsim/internal/workload/suite"
)

// GridPoint is one full-simulation observation: a benchmark run under one
// machine model at one (scale, seed), with the trace's ideal statistics.
type GridPoint struct {
	Bench  string
	Model  string
	Scale  float64
	Seed   int64
	Ideal  trace.Summary
	Result *machine.Result
}

// observables are the per-point quantities the fit consumes, reduced from
// the raw Result.
type observables struct {
	scale      float64
	work       float64 // mean per-CPU ideal work cycles
	missStall  float64 // mean per-CPU miss-stall cycles
	lockStall  float64 // mean per-CPU lock-stall cycles
	otherStall float64 // mean per-CPU barrier+drain cycles
	busBusy    float64 // whole-machine bus busy cycles
	transfers  float64
	waiters    float64 // waiters at transfer (mean)
	xferHold   float64
	xferTime   float64
	runTime    float64
	meanFinish float64
}

func observe(p GridPoint) observables {
	o := observables{scale: p.Scale, work: p.Ideal.WorkCycles}
	r := p.Result
	n := float64(len(r.CPUs))
	if n == 0 {
		return o
	}
	for i := range r.CPUs {
		c := &r.CPUs[i]
		o.missStall += float64(c.StallMiss)
		o.lockStall += float64(c.StallLock)
		o.otherStall += float64(c.StallBarrier + c.StallDrain)
		o.meanFinish += float64(c.FinishTime)
	}
	o.missStall /= n
	o.lockStall /= n
	o.otherStall /= n
	o.meanFinish /= n
	o.busBusy = float64(r.Bus.BusyCycles)
	o.transfers = float64(r.Locks.Transfers)
	o.waiters = r.Locks.AvgWaitersAtTransfer()
	o.xferHold = r.Locks.AvgTransferHold()
	o.xferTime = r.Locks.AvgTransferTime()
	o.runTime = float64(r.RunTime)
	return o
}

// fitLin fits y ≈ A + B·s by least squares. With a single distinct scale
// the line goes through the origin (B = mean(y/s)), because an intercept
// would be unidentifiable.
func fitLin(ss, ys []float64) LinFit {
	if len(ss) == 0 {
		return LinFit{}
	}
	distinct := map[float64]bool{}
	for _, s := range ss {
		distinct[s] = true
	}
	if len(distinct) < 2 {
		var ratio float64
		var n int
		for i, s := range ss {
			if s > 0 {
				ratio += ys[i] / s
				n++
			}
		}
		if n > 0 {
			ratio /= float64(n)
		}
		return LinFit{B: ratio}
	}
	var sumS, sumY, sumSS, sumSY float64
	for i, s := range ss {
		sumS += s
		sumY += ys[i]
		sumSS += s * s
		sumSY += s * ys[i]
	}
	n := float64(len(ss))
	det := n*sumSS - sumS*sumS
	if det == 0 {
		return LinFit{}
	}
	b := (n*sumSY - sumS*sumY) / det
	a := (sumY - b*sumS) / n
	return LinFit{A: a, B: b}
}

// fitTwo solves y ≈ k1·x1 + k2·x2 by least squares through the origin
// (2×2 normal equations). A singular system degrades to the single
// best-conditioned regressor.
func fitTwo(x1, x2, y []float64) (k1, k2 float64) {
	var a11, a12, a22, b1, b2 float64
	for i := range y {
		a11 += x1[i] * x1[i]
		a12 += x1[i] * x2[i]
		a22 += x2[i] * x2[i]
		b1 += x1[i] * y[i]
		b2 += x2[i] * y[i]
	}
	det := a11*a22 - a12*a12
	if math.Abs(det) > 1e-9*math.Max(a11*a22, 1) {
		return (b1*a22 - b2*a12) / det, (b2*a11 - b1*a12) / det
	}
	// Degenerate: regress on whichever single term carries signal.
	if a11 > a22 {
		if a11 == 0 {
			return 0, 0
		}
		return b1 / a11, 0
	}
	if a22 == 0 {
		return 0, 0
	}
	return 0, b2 / a22
}

// errBound turns the worst self-error a fit left on its own grid into the
// published bound: doubled for held-out seed variance, floored so a
// suspiciously perfect fit still publishes an honest minimum.
func errBound(maxErr float64) float64 {
	b := 2*maxErr + 0.02
	if b < 0.05 {
		b = 0.05
	}
	return b
}

// mean of a slice; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Fit calibrates a Model from grid observations. Points are grouped into
// (bench × model) cells; each cell needs at least one point, and cells fit
// independently.
func Fit(points []GridPoint) (*Model, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("predict: no grid points to fit")
	}
	byCell := map[string][]GridPoint{}
	scaleSet := map[float64]bool{}
	seedSet := map[int64]bool{}
	for _, p := range points {
		if p.Result == nil {
			return nil, fmt.Errorf("predict: grid point %s/%s scale %g has no result", p.Bench, p.Model, p.Scale)
		}
		byCell[CellKey(p.Bench, p.Model)] = append(byCell[CellKey(p.Bench, p.Model)], p)
		scaleSet[p.Scale] = true
		seedSet[p.Seed] = true
	}

	m := &Model{Version: ModelVersion, Cells: make(map[string]*Cell, len(byCell))}
	for s := range scaleSet {
		m.Scales = append(m.Scales, s)
	}
	sort.Float64s(m.Scales)
	for s := range seedSet {
		m.Seeds = append(m.Seeds, s)
	}
	sort.Slice(m.Seeds, func(i, j int) bool { return m.Seeds[i] < m.Seeds[j] })

	for key, pts := range byCell {
		cell, err := fitCell(pts)
		if err != nil {
			return nil, fmt.Errorf("predict: cell %s: %w", key, err)
		}
		m.Cells[key] = cell
	}
	return m, m.Validate()
}

// fitCell calibrates one benchmark × model cell from its grid points.
func fitCell(pts []GridPoint) (*Cell, error) {
	ncpu := len(pts[0].Result.CPUs)
	if ncpu == 0 {
		return nil, fmt.Errorf("result has no CPUs")
	}
	c := &Cell{Bench: pts[0].Bench, Model: pts[0].Model, NCPU: ncpu}

	obs := make([]observables, len(pts))
	var ss, work, miss, other, bus, xfers, waiters, holds, lats []float64
	for i, p := range pts {
		obs[i] = observe(p)
		o := obs[i]
		ss = append(ss, o.scale)
		work = append(work, o.work)
		miss = append(miss, o.missStall)
		other = append(other, o.otherStall)
		bus = append(bus, o.busBusy)
		xfers = append(xfers, o.transfers)
		if o.transfers > 0 {
			waiters = append(waiters, o.waiters)
			holds = append(holds, o.xferHold)
			lats = append(lats, o.xferTime)
		}
	}
	c.Work = fitLin(ss, work)
	c.MissStall = fitLin(ss, miss)
	c.OtherStall = fitLin(ss, other)
	c.BusBusy = fitLin(ss, bus)
	c.Transfers = fitLin(ss, xfers)
	c.AvgWaiters = mean(waiters)
	c.TransferHold = mean(holds)
	c.TransferLatency = mean(lats)

	// Lock-wait regression: observed per-CPU lock stall against the
	// queueing-delay term and the raw scale (uncontended cost).
	var qterm, sterm, lock []float64
	for _, o := range obs {
		qterm = append(qterm, c.queueTerm(o.scale))
		sterm = append(sterm, o.scale)
		lock = append(lock, o.lockStall)
	}
	c.KappaQueue, c.KappaScale = fitTwo(qterm, sterm, lock)

	// Straggler: least-squares map from the model's mean finish time to
	// the observed run time.
	var num, den float64
	for _, o := range obs {
		fin := c.Work.At(o.scale) + c.MissStall.At(o.scale) + c.lockWait(o.scale) + c.OtherStall.At(o.scale)
		num += fin * o.runTime
		den += fin * fin
	}
	if den == 0 {
		return nil, fmt.Errorf("model predicts zero finish time everywhere")
	}
	c.Straggler = num / den
	if c.Straggler <= 0 {
		return nil, fmt.Errorf("non-positive straggler factor %v", c.Straggler)
	}

	// Self-error of the complete prediction on the calibration grid.
	var errs []float64
	for _, o := range obs {
		p := c.Predict(o.scale)
		if o.runTime > 0 {
			errs = append(errs, math.Abs(p.TTS-o.runTime)/o.runTime)
		}
	}
	for _, e := range errs {
		if e > c.MaxErr {
			c.MaxErr = e
		}
	}
	c.MeanErr = mean(errs)
	c.ErrBound = errBound(c.MaxErr)
	return c, nil
}

// CalibrateOptions parameterises CalibrateGrid.
type CalibrateOptions struct {
	// Scales are the workload scales of the grid. Required. Two or more
	// distinct scales let every component fit an intercept.
	Scales []float64
	// Seeds are the generation seeds; empty selects {1, 2} so seed
	// variance is inside the fit.
	Seeds []int64
	// Only restricts the benchmarks (suite names); empty = all six.
	Only []string
	// Models restricts the machine-model cells; empty = all three.
	Models []core.Model
	// Workers bounds concurrent simulations; 0 selects GOMAXPROCS.
	Workers int
	// Cache, when non-nil, shares trace memoisation with the caller.
	Cache *engine.TraceCache
	// Progress, when non-nil, receives one line per grid slice.
	Progress func(format string, args ...any)
}

// CalibrateGrid runs the full simulation grid (every benchmark × model ×
// scale × seed) and fits the analytic model against it. This is the
// expensive, offline half of the prediction service; the fitted Model is
// the cheap, resident half.
func CalibrateGrid(ctx context.Context, opts CalibrateOptions) (*Model, []GridPoint, error) {
	if len(opts.Scales) == 0 {
		return nil, nil, fmt.Errorf("predict: no calibration scales given")
	}
	seeds := opts.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1, 2}
	}
	points, err := RunGrid(ctx, opts.Scales, seeds, opts)
	if err != nil {
		return nil, nil, err
	}
	m, err := Fit(points)
	if err != nil {
		return nil, nil, err
	}
	return m, points, nil
}

// RunGrid runs full simulations over the (scale × seed) grid and returns
// one GridPoint per benchmark × model × scale × seed.
func RunGrid(ctx context.Context, scales []float64, seeds []int64, opts CalibrateOptions) ([]GridPoint, error) {
	sel, err := suite.NewSelection(opts.Only...)
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	var points []GridPoint
	for _, scale := range scales {
		for _, seed := range seeds {
			if opts.Progress != nil {
				opts.Progress("predict: calibrating scale %g seed %d", scale, seed)
			}
			outs, err := core.RunSuiteCtx(ctx, core.Options{
				Scale:   scale,
				Seed:    seed,
				Models:  opts.Models,
				Select:  sel,
				Workers: opts.Workers,
				Cache:   opts.Cache,
			})
			if err != nil {
				return nil, fmt.Errorf("predict: grid run scale %g seed %d: %w", scale, seed, err)
			}
			for _, out := range outs {
				for model, res := range out.Results {
					points = append(points, GridPoint{
						Bench:  out.Name,
						Model:  model.String(),
						Scale:  scale,
						Seed:   seed,
						Ideal:  out.Ideal,
						Result: res,
					})
				}
			}
		}
	}
	return points, nil
}
