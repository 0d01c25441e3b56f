package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/tensor"
)

// rowSpec names one convolution and holds its operands — the
// benchmark's inputs, made before any clock starts. A standard row has
// shape and w; a depthwise row has shape, w as [C][R][S] and depthwise
// set; a fused depthwise→pointwise row has sep, w (depthwise) and pw.
type rowSpec struct {
	id        string
	shape     conv.Shape
	depthwise bool
	sep       *core.SeparableShape
	in, w, pw *tensor.Tensor
	// ep is the store epilogue (the pointwise one for a fused row);
	// dwEp the depthwise-stage epilogue of a fused row.
	ep, dwEp *core.EpilogueParams

	// weight is the row's share of the workload's headline sum.
	weight float64
	// stages lists, for a fused row, the indexes of the single-stage
	// rows it replaces (to price fusion); modelled marks rows that have
	// a simarch projection to compare with.
	stages   []int
	modelled bool
}

func dwFLOPs(s conv.Shape) int64 {
	return 2 * int64(s.N) * int64(s.C) * int64(s.P()) * int64(s.Q()) * int64(s.R) * int64(s.S)
}

func (sp rowSpec) flops() int64 {
	switch {
	case sp.sep != nil:
		return dwFLOPs(sp.sep.DWShape()) + sp.sep.PWShape().FLOPs()
	case sp.depthwise:
		return dwFLOPs(sp.shape)
	}
	return sp.shape.FLOPs()
}

// row is a rowSpec in its steady serving state: plan built, filter
// packed, output owned by the caller. exec is one execution.
type row struct {
	rowSpec
	exec func() error
	out  *tensor.Tensor
	// plan is set for standard rows, whose stage split CollectStats
	// exposes; nil for depthwise and fused rows.
	plan *core.Plan

	planBuild, packFilter time.Duration
}

func timed(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// newRow builds sp's plan under opt (threads and clocks; the epilogues
// come from sp), packs its filter and runs it once so the plan's
// scratch pool is warm.
func newRow(sp rowSpec, opt core.Options) (*row, error) {
	r := &row{rowSpec: sp}
	opt.FusedEpilogue, opt.DepthwiseEpilogue = sp.ep, sp.dwEp
	var err error
	fail := func(stage string) (*row, error) { return nil, fmt.Errorf("%s: %s: %w", sp.id, stage, err) }
	switch {
	case sp.sep != nil:
		ss := *sp.sep
		r.out = tensor.New(ss.N, ss.K, ss.P(), ss.Q())
		var plan *core.SeparablePlan
		if r.planBuild, err = timed(func() (e error) { plan, e = core.TryNewSeparablePlan(ss, opt); return }); err != nil {
			return fail("plan")
		}
		var pdw *core.PackedDepthwiseFilter
		var ppw *core.PackedFilter
		if r.packFilter, err = timed(func() (e error) { pdw, ppw, e = plan.TransformFilters(sp.w, sp.pw); return }); err != nil {
			return fail("pack")
		}
		r.exec = func() error { return plan.TryExecutePacked(sp.in, pdw, ppw, r.out) }
	case sp.depthwise:
		s := sp.shape
		r.out = tensor.New(s.N, s.C, s.P(), s.Q())
		var plan *core.DepthwisePlan
		if r.planBuild, err = timed(func() (e error) { plan, e = core.TryNewDepthwisePlan(s, opt); return }); err != nil {
			return fail("plan")
		}
		var pf *core.PackedDepthwiseFilter
		if r.packFilter, err = timed(func() (e error) { pf, e = plan.TransformFilter(sp.w); return }); err != nil {
			return fail("pack")
		}
		r.exec = func() error { return plan.TryExecutePacked(sp.in, pf, r.out) }
	default:
		r.out = sp.shape.NewOutput()
		if r.planBuild, err = timed(func() (e error) { r.plan, e = core.TryNewPlan(sp.shape, opt); return }); err != nil {
			return fail("plan")
		}
		var pf *core.PackedFilter
		if r.packFilter, err = timed(func() (e error) { pf, e = r.plan.TransformFilter(sp.w); return }); err != nil {
			return fail("pack")
		}
		r.exec = func() error { return r.plan.TryExecutePacked(sp.in, pf, r.out) }
	}
	if err = r.exec(); err != nil {
		return fail("first execution")
	}
	return r, nil
}

// applyEpilogue is EpilogueParams' documented order: bias, affine, ReLU.
func applyEpilogue(ep *core.EpilogueParams, ch int, v float64) float64 {
	if ep == nil {
		return v
	}
	if ep.Bias != nil {
		v += float64(ep.Bias[ch])
	}
	if ep.Scale != nil {
		v = v*float64(ep.Scale[ch]) + float64(ep.Shift[ch])
	}
	if ep.ReLU {
		v = math.Max(v, 0)
	}
	return v
}

// oraclePoint is output element (k, p, q) of sp summed independently
// in float64 from the operands.
func (sp rowSpec) oraclePoint(k, p, q int) float64 {
	switch {
	case sp.sep != nil:
		dw := sp.sep.DWShape()
		var acc float64
		for c := 0; c < dw.C; c++ {
			mid := float32(applyEpilogue(sp.dwEp, c, dwPoint(dw, sp.in, sp.w, 0, c, p, q)))
			acc += float64(mid) * float64(sp.pw.At(k, c, 0, 0))
		}
		return applyEpilogue(sp.ep, k, acc)
	case sp.depthwise:
		return applyEpilogue(sp.ep, k, dwPoint(sp.shape, sp.in, sp.w, 0, k, p, q))
	}
	return applyEpilogue(sp.ep, k, convPoint(sp.shape, sp.in, sp.w, 0, k, p, q))
}

const (
	// checkPoints output elements per row are compared with the oracle;
	// conv.Reference over whole ResNet-50 layers would cost more than
	// the measurement it guards.
	checkPoints = 64
	// checkTolerance bounds differences that come from float32
	// summation order alone.
	checkTolerance = 1e-3
)

// check compares sampled elements of r's output with the oracle and
// returns the worst difference relative to the largest expected value.
func (r *row) check(rng *rand.Rand) float64 {
	got, want := tensor.New(checkPoints), tensor.New(checkPoints)
	for i := range got.Data {
		k, p, q := rng.Intn(r.out.Dims[1]), rng.Intn(r.out.Dims[2]), rng.Intn(r.out.Dims[3])
		got.Data[i] = r.out.At(0, k, p, q)
		want.Data[i] = float32(r.oraclePoint(k, p, q))
	}
	return tensor.RelDiff(want, got)
}

// outputHash folds every output bit into one word, so "the same output
// as the first execution" is one comparison per measurement.
func outputHash(t *tensor.Tensor) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range t.Data {
		h = (h ^ uint64(math.Float32bits(v))) * 1099511628211
	}
	return h
}

// minRowMeasure is the shortest interval a row measurement may time:
// faster rows are iterated inside one measurement until they fill it.
const minRowMeasure = 20 * time.Millisecond

// measure times iters executions and returns milliseconds per one.
func (r *row) measure(iters int) (float64, error) {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := r.exec(); err != nil {
			return 0, fmt.Errorf("%s: %w", r.id, err)
		}
	}
	return float64(time.Since(t0)) / float64(time.Millisecond) / float64(iters), nil
}

// rowSet is a table of rows measured in interleaved passes.
type rowSet struct {
	rows  []*row
	iters []int    // executions per measurement, from verify
	first []uint64 // output hash every later measurement must reproduce
}

// buildRows is the set-up of a row workload: every plan constructed,
// every filter packed, every row executed once.
func buildRows(specs []rowSpec, opt core.Options) (*rowSet, error) {
	rs := &rowSet{}
	for _, sp := range specs {
		r, err := newRow(sp, opt)
		if err != nil {
			return nil, err
		}
		rs.rows = append(rs.rows, r)
	}
	return rs, nil
}

// verify checks every row once against the sampled oracle, records the
// output each later measurement must reproduce bit for bit, and sizes
// each row's measurement to at least minRowMeasure.
func (rs *rowSet) verify(seed uint64) error {
	rng := rand.New(rand.NewSource(int64(seed)))
	rs.first = make([]uint64, len(rs.rows))
	rs.iters = make([]int, len(rs.rows))
	for i, r := range rs.rows {
		if d := r.check(rng); d > checkTolerance {
			return fmt.Errorf("%s: output differs from the oracle by %.2e (limit %.0e)", r.id, d, checkTolerance)
		}
		rs.first[i] = outputHash(r.out)
		once, err := r.measure(1)
		if err != nil {
			return err
		}
		rs.iters[i] = int(float64(minRowMeasure)/float64(time.Millisecond)/math.Max(once, 1e-3)) + 1
	}
	return nil
}

// passResult holds per-row samples (ms per execution, one per pass).
type passResult struct {
	ms                [][]float64
	attempted, failed int
}

// runPasses measures every row once per pass, pass after pass (ABAB,
// never AAAA), until d has elapsed and at least minPasses are in. A
// measurement fails when an execution errors or leaves an output that
// differs from the row's first.
func (rs *rowSet) runPasses(d time.Duration, minPasses int, tr *tracer) passResult {
	res := passResult{ms: make([][]float64, len(rs.rows))}
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < d; pass++ {
		passStart := time.Now()
		type timing struct{ t0, t1 time.Time }
		times := make([]timing, len(rs.rows))
		for i, r := range rs.rows {
			times[i].t0 = time.Now()
			ms, err := r.measure(rs.iters[i])
			times[i].t1 = time.Now()
			res.attempted++
			if err != nil || outputHash(r.out) != rs.first[i] {
				res.failed++
				continue
			}
			res.ms[i] = append(res.ms[i], ms)
		}
		if tr != nil {
			root := tr.add("loadgen.pass", 0, pass, passStart, time.Now())
			for i, r := range rs.rows {
				tr.add("core."+r.id+".TryExecutePacked", root, pass, times[i].t0, times[i].t1)
			}
		}
	}
	return res
}

// weighted is Σ weight × stat(row samples): the time one headline unit
// of work takes when every row runs at its stat.
func (rs *rowSet) weighted(ms [][]float64, stat func([]float64) float64) float64 {
	var sum float64
	for i, r := range rs.rows {
		if r.weight != 0 {
			sum += r.weight * stat(ms[i])
		}
	}
	return sum
}

// headline reduces a pass result to the two measured end-to-end
// numbers: headline units per second from the mean times, and the
// unit's time when every row runs at its median.
func (rs *rowSet) headline(res passResult) (perSecond, p50ms float64) {
	return 1000 / rs.weighted(res.ms, mean), rs.weighted(res.ms, median)
}
