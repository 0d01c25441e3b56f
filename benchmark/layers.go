package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ndirect/internal/bench"
	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/hw"
	"ndirect/internal/nn"
	"ndirect/internal/simd"
	"ndirect/internal/tensor"
)

// benchThreads is the worker count every workload asks for: nproc of
// the host the bounds were sized on.
const benchThreads = 2

func rowLabel(id int) string { return fmt.Sprintf("L%02d", id) }

func seededTensor(seed uint64, dims ...int) *tensor.Tensor {
	t := tensor.New(dims...)
	t.FillRandom(int64(seed))
	return t
}

// resnet50Occurrences counts how often each Table-4 row's shape occurs
// among nn.ResNet50()'s conv units, keyed by row ID. Building the
// network draws 25M weights, so the count is taken once per process.
var resnet50Occurrences = sync.OnceValues(func() (map[int]int, error) {
	occ := map[int]int{}
	byShape := map[conv.Shape]int{}
	for _, l := range conv.Table4[:23] {
		byShape[l.Shape] = l.ID
	}
	for _, u := range nn.ResNet50().ConvUnits() {
		id, ok := byShape[u.Shape.WithBatch(1)]
		if !ok {
			return nil, fmt.Errorf("ResNet-50 unit %s has shape %v, not a Table-4 row", u.LayerName, u.Shape)
		}
		occ[id]++
	}
	return occ, nil
})

// resnetRowSpecs is Table-4 rows 1–23 at N=1 with seeded operands,
// each weighted by its occurrences in ResNet-50: the headline sum is
// one ResNet-50's worth of convolutions.
func resnetRowSpecs(seed uint64) ([]rowSpec, error) {
	occ, err := resnet50Occurrences()
	if err != nil {
		return nil, err
	}
	var specs []rowSpec
	for _, l := range conv.Table4[:23] {
		s, id := l.Shape, uint64(l.ID)
		specs = append(specs, rowSpec{
			id: rowLabel(l.ID), shape: s, modelled: true, weight: float64(occ[l.ID]),
			in: seededTensor(seed+id, s.N, s.C, s.H, s.W),
			w:  seededTensor(seed+100+id, s.K, s.C, s.R, s.S),
		})
	}
	return specs, nil
}

// dwsepRowSpecs is MobileNet rows 29–32 (depthwise through
// DepthwisePlan, pointwise through Plan) followed by the fused blocks
// 29→30 and 31→32 through SeparablePlan. Only the fused blocks carry
// headline weight; the single stages run beside them so the traced run
// can price fusion under the same cache conditions.
func dwsepRowSpecs(seed uint64) ([]rowSpec, error) {
	var specs []rowSpec
	index := map[int]int{}
	for _, l := range conv.MobileNetRows {
		s, id := l.Shape, uint64(l.ID)
		sp := rowSpec{id: rowLabel(l.ID), shape: s, depthwise: l.Depthwise, in: seededTensor(seed+id, s.N, s.C, s.H, s.W)}
		if l.Depthwise {
			sp.w = seededTensor(seed+100+id, s.C, s.R, s.S)
		} else {
			sp.w = seededTensor(seed+100+id, s.K, s.C, s.R, s.S)
		}
		index[l.ID] = len(specs)
		specs = append(specs, sp)
	}
	for _, pair := range [][2]int{{29, 30}, {31, 32}} {
		dwi, okDW := index[pair[0]]
		pwi, okPW := index[pair[1]]
		if !okDW || !okPW || !specs[dwi].depthwise || specs[pwi].depthwise {
			return nil, fmt.Errorf("conv.MobileNetRows no longer pairs rows %d and %d as depthwise→pointwise", pair[0], pair[1])
		}
		d, k := specs[dwi].shape, specs[pwi].shape.K
		specs = append(specs, rowSpec{
			id:  fmt.Sprintf("F%d_%d", pair[0], pair[1]),
			sep: &core.SeparableShape{N: 1, C: d.C, H: d.H, W: d.W, K: k, R: d.R, S: d.S, Str: d.Str, Pad: d.Pad},
			in:  specs[dwi].in, w: specs[dwi].w, pw: specs[pwi].w,
			weight: 1, stages: []int{dwi, pwi},
		})
	}
	return specs, nil
}

// hostPeakGFLOPS is what one thread sustains on the micro-kernel's own
// register tile — 24 simd.Vec4 accumulators, scalar-by-vector FMAs, no
// loads beyond the tile — taken as the best of a few short bursts.
func hostPeakGFLOPS() float64 {
	const iters = 400_000
	var acc [24]simd.Vec4
	a := simd.Vec4{1.0000001, 0.9999999, 1.0000002, 0.9999998}
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			for j := range acc {
				acc[j] = acc[j].FMAScalar(a, 1e-9)
			}
		}
		best = max(best, float64(iters)*float64(len(acc))*simd.Width*2/time.Since(t0).Seconds()/1e9)
	}
	peakSink = acc
	return best
}

// peakSink keeps the probe's accumulators live so the loop is not dead code.
var peakSink [24]simd.Vec4

// modelEfficiency is the simarch projection's share of per-core peak
// for nDirect on s, one thread, on the paper's Phytium 2000+.
func modelEfficiency(s conv.Shape) float64 {
	r := bench.ModelLayerThreads(bench.Config{Platform: hw.Phytium2000}, bench.MNDirect, s, 1)
	return r.GFLOPS / hw.Phytium2000.PerCorePeakGFLOPS()
}

func gflops(flops int64, ms float64) float64 { return ratio(float64(flops), ms*1e6) }

// allocsPer is heap allocations per call of f over n calls.
func allocsPer(f func() error, n int) (allocs, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n), nil
}

// runRowWorkload is the `layers` and `dwsep` workloads: in-process
// steady-state packed execution at Threads 2, where the kernel does
// all the work and no other layer any.
func runRowWorkload(cfg runConfig, makeSpecs func(seed uint64) ([]rowSpec, error)) (runResult, error) {
	specs, err := makeSpecs(cfg.seed)
	if err != nil {
		return runResult{}, err
	}
	var rs *rowSet
	setupS, err := medianSetup(func() (err error) {
		rs, err = buildRows(specs, core.Options{Threads: benchThreads})
		return err
	})
	if err != nil {
		return runResult{}, err
	}
	if err := rs.verify(cfg.seed); err != nil {
		return runResult{}, err
	}
	settle()
	if !cfg.trace {
		res := rs.runPasses(cfg.duration(1), 3, nil)
		out := runResult{attempted: res.attempted, failed: res.failed}
		if res.failed == 0 {
			perS, p50ms := rs.headline(res)
			out.samples = len(res.ms[0])
			out.metrics = map[string]float64{
				"setup_s": setupS, "throughput_per_s": perS, "latency_p50_ms": p50ms,
			}
		}
		return out, nil
	}

	// Traced run: an untraced slice for the overhead ratio, the traced
	// slice for per-row rates, then the same rows with the stage clock
	// on and, where a machine model exists, on one thread.
	plain := rs.runPasses(cfg.duration(0.25), 2, nil)
	traced := rs.runPasses(cfg.duration(0.25), 2, cfg.tracer)
	out := runResult{attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed}
	if out.failed > 0 {
		return out, nil
	}
	m := map[string]float64{}
	plainPerS, _ := rs.headline(plain)
	tracedPerS, _ := rs.headline(traced)
	m["loadgen.trace_overhead_ratio"] = plainPerS / tracedPerS
	m["loadgen.sent"] = float64(traced.attempted)
	m["loadgen.ok"] = float64(traced.attempted)
	m["core.execute_ms"] = rs.weighted(traced.ms, median)
	for i, r := range rs.rows {
		if r.sep == nil {
			m["core."+r.id+".gflops"] = gflops(r.flops(), median(traced.ms[i]))
		}
		m["core.conv_gflops"] += r.weight * float64(r.flops()) / (m["core.execute_ms"] * 1e6)
		m["core.plan_build_us"] += float64(r.planBuild) / float64(time.Microsecond)
		m["core.pack_filter_ms"] += float64(r.packFilter) / float64(time.Millisecond)
	}
	if m["core.allocs_per_execute"], _, err = allocsPer(rs.rows[0].exec, 64); err != nil {
		return out, err
	}
	var twoCall, fused float64
	for i, r := range rs.rows {
		for _, st := range r.stages {
			twoCall += median(traced.ms[st])
		}
		if len(r.stages) > 0 {
			fused += median(traced.ms[i])
		}
	}
	m["core.sep_fused_speedup"] = ratio(twoCall, fused)

	// Stage split: the same rows re-planned with CollectStats, executed
	// once more, FLOP-weighted over the rows that are standard plans.
	// The plan constructions double as the dispatch-registry sample.
	pre := core.KernelDispatchStats()
	clocked, err := buildRows(specs, core.Options{Threads: benchThreads, CollectStats: true})
	if err != nil {
		return out, err
	}
	post := core.KernelDispatchStats()
	hits, misses := float64(post.Hits-pre.Hits), float64(post.Misses-pre.Misses)
	m["core.kernel_dispatch_hit_ratio"] = ratio(hits, hits+misses)
	addStageShares(m, clocked.rows)

	if specs[0].modelled {
		// One thread, one pass: per-core rate against the machine model,
		// and how much of the second thread the grid turns into speed.
		one, err := buildRows(specs, core.Options{Threads: 1})
		if err != nil {
			return out, err
		}
		if err := one.verify(cfg.seed); err != nil {
			return out, err
		}
		oneRes := one.runPasses(0, 1, nil)
		out.attempted += oneRes.attempted
		out.failed += oneRes.failed
		if out.failed > 0 {
			return out, nil
		}
		peak := hostPeakGFLOPS()
		m["core.host_peak_gflops"] = peak
		var t1, t2 float64
		for i, r := range one.rows {
			t1 += median(oneRes.ms[i])
			t2 += median(traced.ms[i])
			m["core."+r.id+".pct_of_model"] = 100 * gflops(r.flops(), median(oneRes.ms[i])) / peak / modelEfficiency(r.shape)
		}
		m["parallel.scaling_eff_t2"] = t1 / (benchThreads * t2)
	}
	out.metrics = m
	return out, nil
}

// addStageShares adds core.{pack,kernel,store}_share to m: each
// standard row's CollectStats fractions from its latest execution,
// FLOP-weighted, normalised over the three stages (a packed execution
// spends nothing on the filter transform) so they sum to 1.
func addStageShares(m map[string]float64, rows []*row) {
	var pack, kernel, store float64
	for _, r := range rows {
		if r.plan == nil {
			continue
		}
		_, p, k, s := r.plan.LastStats().Fractions()
		if sum := p + k + s; sum > 0 {
			f := float64(r.flops()) / sum
			pack, kernel, store = pack+f*p, kernel+f*k, store+f*s
		}
	}
	if total := pack + kernel + store; total > 0 {
		m["core.pack_share"], m["core.kernel_share"], m["core.store_share"] = pack/total, kernel/total, store/total
	}
}

func runLayers(cfg runConfig) (runResult, error) { return runRowWorkload(cfg, resnetRowSpecs) }
func runDWSep(cfg runConfig) (runResult, error)  { return runRowWorkload(cfg, dwsepRowSpecs) }
