// Benchmark harness: one testing.B target per table/figure of the
// paper (reduced problem sizes so `go test -bench=.` completes in
// minutes) plus the ablation benches DESIGN.md §4 calls out. The
// full-size experiments live in cmd/ndbench; EXPERIMENTS.md maps each
// benchmark to the paper.
package ndirect_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"ndirect"
	"ndirect/internal/acl"
	"ndirect/internal/autotune"
	"ndirect/internal/bench"
	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/hw"
	"ndirect/internal/im2col"
	"ndirect/internal/nn"
	"ndirect/internal/serve"
	"ndirect/internal/tensor"
	"ndirect/internal/xnn"
	"ndirect/internal/xsmm"
)

// benchShape is a reduced Table-4-layer-3-like workload: same kernel
// and stride structure, smaller channels/space so a -bench run stays
// fast.
var benchShape = conv.Shape{N: 1, C: 32, H: 28, W: 28, K: 32, R: 3, S: 3, Str: 1, Pad: 1}

// benchShape1x1 exercises the no-im2col regime (layers 19/20).
var benchShape1x1 = conv.Shape{N: 1, C: 64, H: 28, W: 28, K: 64, R: 1, S: 1, Str: 1, Pad: 0}

func reportGFLOPS(b *testing.B, s conv.Shape, iters int) {
	b.Helper()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(s.FLOPs())*float64(iters)/sec/1e9, "GFLOPS")
	}
}

func benchOperands(s conv.Shape) (in, filter, out *tensor.Tensor) {
	in = s.NewInput()
	in.FillRandom(1)
	filter = s.NewFilter()
	filter.FillRandom(2)
	out = s.NewOutput()
	return
}

// --- Figure 4: the four measured methods on the 3×3 workload ---

func BenchmarkFig4NDirect(b *testing.B) {
	s := benchShape
	in, filter, out := benchOperands(s)
	plan := core.NewPlan(s, core.Options{Threads: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Execute(in, filter, out)
	}
	reportGFLOPS(b, s, b.N)
}

func BenchmarkFig4Im2colGEMM(b *testing.B) {
	s := benchShape
	in, filter, _ := benchOperands(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im2col.Conv2D(s, in, filter, im2col.Options{Threads: 1})
	}
	reportGFLOPS(b, s, b.N)
}

func BenchmarkFig4LIBXSMM(b *testing.B) {
	s := benchShape
	in, filter, _ := benchOperands(s)
	inB := tensor.NCHWToNCHWc(in, xsmm.BlockC)
	fB := tensor.KCRSToCRSKc(filter, xsmm.BlockC, xsmm.BlockK)
	outB := xsmm.NewBlockedOutput(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xsmm.Conv2DBlocked(s, inB, fB, outB, xsmm.Options{Threads: 1})
	}
	reportGFLOPS(b, s, b.N)
}

func BenchmarkFig4XNNPACK(b *testing.B) {
	s := benchShape
	in, filter, _ := benchOperands(s)
	inNHWC := tensor.NCHWToNHWC(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xnn.Conv2DNHWC(s, inNHWC, filter, xnn.Options{Threads: 1})
	}
	reportGFLOPS(b, s, b.N)
}

func BenchmarkFig4NDirect1x1(b *testing.B) {
	s := benchShape1x1
	in, filter, out := benchOperands(s)
	plan := core.NewPlan(s, core.Options{Threads: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Execute(in, filter, out)
	}
	reportGFLOPS(b, s, b.N)
}

func BenchmarkFig4Modeled(b *testing.B) {
	// One full modeled Figure 4 sweep (28 layers × 4 methods) per
	// iteration.
	cfg := bench.Config{Platform: hw.Phytium2000, Out: io.Discard}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Fig4(cfg)
	}
}

// --- Figure 1: motivation ---

func BenchmarkFig1aBreakdown(b *testing.B) {
	s := benchShape
	in, filter, _ := benchOperands(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im2col.Conv2D(s, in, filter, im2col.Options{Threads: 1, CollectStats: true})
	}
	reportGFLOPS(b, s, b.N)
}

func BenchmarkFig1bMotivationModeled(b *testing.B) {
	cfg := bench.Config{Out: io.Discard}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Fig1b(cfg)
	}
}

func BenchmarkFig1bACLDirect(b *testing.B) {
	s := benchShape
	in, filter, _ := benchOperands(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acl.DirectConv2D(s, in, filter, acl.Options{Threads: 1})
	}
	reportGFLOPS(b, s, b.N)
}

// --- Figure 5: packing ablation (DESIGN.md ablation 1) ---

func BenchmarkFig5PackingAblation(b *testing.B) {
	s := conv.Shape{N: 1, C: 64, H: 56, W: 56, K: 64, R: 3, S: 3, Str: 1, Pad: 1} // layer 26 geometry, reduced
	in, filter, out := benchOperands(s)
	b.Run("overlapped", func(b *testing.B) {
		plan := core.NewPlan(s, core.Options{Threads: 1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan.Execute(in, filter, out)
		}
		reportGFLOPS(b, s, b.N)
	})
	b.Run("sequential", func(b *testing.B) {
		plan := core.NewPlan(s, core.Options{Threads: 1, SequentialPack: true})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan.Execute(in, filter, out)
		}
		reportGFLOPS(b, s, b.N)
	})
}

// --- Figure 6: vs the tuned schedule ---

func BenchmarkFig6AnsorTunedSchedule(b *testing.B) {
	s := benchShape
	in, filter, out := benchOperands(s)
	res := autotune.Tune(s, autotune.TuneOptions{Trials: 12, Population: 6, Generations: 2, Threads: 1, Seed: 1})
	sch := autotune.ClampFor(res.Best, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := autotune.Execute(s, sch, in, filter, out, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportGFLOPS(b, s, b.N)
}

// --- Figure 7: end-to-end ---

func BenchmarkFig7EndToEndModeled(b *testing.B) {
	cfg := bench.Config{Out: io.Discard}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Fig7Modeled(cfg, []string{"resnet50"})
	}
}

func BenchmarkFig7ResNet50Blocks(b *testing.B) {
	// One representative bottleneck worth of convs (1x1 -> 3x3 -> 1x1)
	// through the public model-free API.
	shapes := []conv.Shape{
		{N: 1, C: 256, H: 14, W: 14, K: 64, R: 1, S: 1, Str: 1, Pad: 0},
		{N: 1, C: 64, H: 14, W: 14, K: 64, R: 3, S: 3, Str: 1, Pad: 1},
		{N: 1, C: 64, H: 14, W: 14, K: 256, R: 1, S: 1, Str: 1, Pad: 0},
	}
	plans := make([]*core.Plan, len(shapes))
	ins := make([]*tensor.Tensor, len(shapes))
	fs := make([]*tensor.Tensor, len(shapes))
	outs := make([]*tensor.Tensor, len(shapes))
	var flops int64
	for i, s := range shapes {
		plans[i] = core.NewPlan(s, core.Options{Threads: 1})
		ins[i], fs[i], outs[i] = benchOperands(s)
		flops += s.FLOPs()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range shapes {
			plans[j].Execute(ins[j], fs[j], outs[j])
		}
	}
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(flops)*float64(b.N)/sec/1e9, "GFLOPS")
	}
}

// --- Figures 8 & 9: embedded and SMT projections ---

func BenchmarkFig8EmbeddedModeled(b *testing.B) {
	cfg := bench.Config{Out: io.Discard}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Fig8(cfg)
	}
}

func BenchmarkFig9HyperThreadingModeled(b *testing.B) {
	cfg := bench.Config{Out: io.Discard}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Fig9(cfg)
	}
}

// --- DESIGN.md §4 ablations ---

// Ablation 2: the standard family's body on a 3×3 stride-1 plan against
// the looped Go kernel12x8 it falls back to under quarantine, on the
// same plan. (The
// fully S-unrolled Algorithm 3 transcription is measured body against
// body in internal/core's BenchmarkMicroKernelBodies.)
func BenchmarkAblationKernelSpecialisation(b *testing.B) {
	s := benchShape
	in, filter, out := benchOperands(s)
	plan := core.NewPlan(s, core.Options{Threads: 1})
	family := plan.KernelName()
	for _, looped := range []bool{false, true} {
		name := "family-default"
		if looped {
			name = "looped12x8"
			core.QuarantineKernelFamily(family)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan.Execute(in, filter, out)
			}
			reportGFLOPS(b, s, b.N)
		})
		core.RestoreKernelFamily(family)
	}
}

// Ablation 4: the Equation 5-6 thread mapping vs naive K-only
// parallelism, on the machine model (the host has one core).
func BenchmarkAblationThreadMapping(b *testing.B) {
	cfg := bench.Config{Platform: hw.Phytium2000, Out: io.Discard}
	s := conv.Shape{N: 64, C: 64, H: 56, W: 56, K: 64, R: 3, S: 3, Str: 1, Pad: 1}
	b.Run("eq5-6-mapping", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bench.ModelLayer(cfg, bench.MNDirect, s)
		}
	})
	b.Run("k-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bench.ModelLayer(cfg, bench.MACLDirect, s)
		}
	})
}

// Ablation 5: on-the-fly filter transform inside the worker loop is
// nDirect's compatibility cost; compare against convolving with
// nothing to transform (C split into one tile so the transform runs
// once) vs many small kt tiles (transform repeated).
func BenchmarkAblationFilterTransform(b *testing.B) {
	s := benchShape
	in, filter, out := benchOperands(s)
	b.Run("single-kt-tile", func(b *testing.B) {
		plan := core.NewPlan(s, core.Options{Threads: 1, ForceTk: s.K})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan.Execute(in, filter, out)
		}
		reportGFLOPS(b, s, b.N)
	})
	b.Run("tiny-kt-tiles", func(b *testing.B) {
		plan := core.NewPlan(s, core.Options{Threads: 1, ForceTk: 8})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan.Execute(in, filter, out)
		}
		reportGFLOPS(b, s, b.N)
	})
}

// --- public API entry points ---

func BenchmarkPublicConv2D(b *testing.B) {
	s := ndirect.Shape(benchShape)
	in := ndirect.NewTensor(s.N, s.C, s.H, s.W)
	in.FillRandom(1)
	w := ndirect.NewTensor(s.K, s.C, s.R, s.S)
	w.FillRandom(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ndirect.Conv2D(s, in, w, ndirect.Options{Threads: 1})
	}
	reportGFLOPS(b, conv.Shape(s), b.N)
}

// BenchmarkLoopedAndGrouped times the filters outside the model tables
// (5×5 and 7×7 at stride 1, the "wide" rows: the standard family's body,
// as for every standard shape, where the looped 12×8 kernel that names
// the benchmark once ran them) and grouped convolution with two groups
// and with one group per channel (each (image, group) sub-problem one
// plan execution).
func BenchmarkLoopedAndGrouped(b *testing.B) {
	for _, tc := range []struct {
		name string
		s    conv.Shape
	}{
		{"r5s5s1", conv.Shape{N: 1, C: 32, H: 28, W: 28, K: 32, R: 5, S: 5, Str: 1, Pad: 2}},
		{"r7s7s1", conv.Shape{N: 1, C: 16, H: 28, W: 28, K: 32, R: 7, S: 7, Str: 1, Pad: 3}},
	} {
		b.Run("wide/"+tc.name, func(b *testing.B) {
			in, filter, out := benchOperands(tc.s)
			plan := core.NewPlan(tc.s, core.Options{Threads: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan.Execute(in, filter, out)
			}
			reportGFLOPS(b, tc.s, b.N)
		})
	}
	s := conv.Shape{N: 1, C: 64, H: 28, W: 28, K: 64, R: 3, S: 3, Str: 1, Pad: 1}
	for _, groups := range []int{2, s.C} {
		b.Run(fmt.Sprintf("grouped/g%d", groups), func(b *testing.B) {
			in := s.NewInput()
			in.FillRandom(1)
			filter := tensor.New(s.K, s.C/groups, s.R, s.S)
			filter.FillRandom(2)
			opt := core.Options{Threads: 2, PlanCache: core.NewPlanCache(0)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.GroupedConv2D(s, groups, in, filter, opt)
			}
			b.ReportMetric(float64(s.FLOPs()/int64(groups))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

func BenchmarkPublicDepthwise(b *testing.B) {
	s := conv.Shape{N: 1, C: 32, H: 56, W: 56, K: 32, R: 3, S: 3, Str: 1, Pad: 1}
	in := tensor.New(s.N, s.C, s.H, s.W)
	in.FillRandom(1)
	f := tensor.New(s.C, s.R, s.S)
	f.FillRandom(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DepthwiseConv2D(s, in, f, core.Options{Threads: 1})
	}
}

// --- Inference serving: the cross-call reuse layer ---

// BenchmarkEngineSteadyState measures repeated nn forwards over a
// reduced ResNet-style conv stack, with the engine's reuse layer off
// (the seed path: every call re-solves the Eq. 1–6 plan, re-runs the
// on-the-fly filter transform and allocates fresh activations) and on
// (plan cache + pre-transformed weights + activation buffer pool).
// Outputs are bit-identical; allocs/op and ns/op drop in cached mode.
func BenchmarkEngineSteadyState(b *testing.B) {
	unit := func(name string, c, k, hw, rs, str, pad int) *nn.ConvUnit {
		shape := conv.Shape{N: 1, C: c, H: hw, W: hw, K: k, R: rs, S: rs, Str: str, Pad: pad}
		w := shape.NewFilter()
		w.FillRandom(int64(c*100 + k))
		return &nn.ConvUnit{LayerName: name, Shape: shape, Weights: w, ReLU: true}
	}
	// A bottleneck-shaped stack at reduced width (ResNet-50 stage-3
	// structure: 1x1 reduce -> 3x3 -> 1x1 expand) plus head and pool.
	net := &nn.Network{Name: "steady", Layers: []nn.Layer{
		unit("conv1", 3, 16, 56, 3, 2, 1),
		unit("b_1x1a", 16, 8, 28, 1, 1, 0),
		unit("b_3x3", 8, 8, 28, 3, 1, 1),
		unit("b_1x1b", 8, 32, 28, 1, 1, 0),
		nn.GlobalAvgPool{},
	}}
	x := tensor.New(1, 3, 56, 56)
	x.FillRandom(9)

	for _, mode := range []struct {
		name  string
		reuse bool
	}{{"uncached", false}, {"cached", true}} {
		b.Run(mode.name, func(b *testing.B) {
			eng := &nn.Engine{Algo: nn.AlgoNDirect, Threads: 1, Reuse: mode.reuse}
			if _, err := net.TryForward(eng, x); err != nil { // warm caches
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := net.TryForward(eng, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// packed-pooled is the floor the serving loop aims at: the same
	// four-conv stack run straight on cached plans with
	// pre-transformed weights, preallocated activations and the fused
	// ReLU epilogue — the per-call work is exactly pack + kernel +
	// store. At steady state this path performs zero heap allocations
	// per forward (asserted deterministically by
	// core.TestSteadyStateZeroAllocs and by scripts/bench_smoke.sh in
	// CI).
	runPackedPooled := func(b *testing.B) {
		shapes := []conv.Shape{
			{N: 1, C: 3, H: 56, W: 56, K: 16, R: 3, S: 3, Str: 2, Pad: 1},
			{N: 1, C: 16, H: 28, W: 28, K: 8, R: 1, S: 1, Str: 1, Pad: 0},
			{N: 1, C: 8, H: 28, W: 28, K: 8, R: 3, S: 3, Str: 1, Pad: 1},
			{N: 1, C: 8, H: 28, W: 28, K: 32, R: 1, S: 1, Str: 1, Pad: 0},
		}
		plans := make([]*core.Plan, len(shapes))
		packed := make([]*core.PackedFilter, len(shapes))
		acts := make([]*tensor.Tensor, len(shapes)+1)
		acts[0] = x
		for i, s := range shapes {
			plans[i] = core.NewPlan(s, core.Options{
				Threads:       1,
				FusedEpilogue: &core.EpilogueParams{ReLU: true},
			})
			w := s.NewFilter()
			w.FillRandom(int64(s.C*100 + s.K))
			pf, err := plans[i].TransformFilter(w)
			if err != nil {
				b.Fatal(err)
			}
			packed[i] = pf
			acts[i+1] = s.NewOutput()
			if err := plans[i].TryExecutePacked(acts[i], pf, acts[i+1]); err != nil { // warm scratch
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range plans {
				if err := plans[j].TryExecutePacked(acts[j], packed[j], acts[j+1]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("packed-pooled", runPackedPooled)

	// packed-pooled-sentinel is the same hot loop with the full
	// silent-corruption defense active: packed-filter checksum
	// verification sampled aggressively (every 64th consumption instead
	// of the production default) and a serving runtime whose integrity
	// sentinel probes kernel families in the background — no registry
	// serves a model on it, so no tenant gate holds a probe back and it
	// probes at the full configured rate. The hot path must stay at 0
	// allocs/op (scripts/bench_smoke.sh gates on it) and within noise of
	// packed-pooled; EXPERIMENTS.md records the measured delta.
	b.Run("packed-pooled-sentinel", func(b *testing.B) {
		core.SetPackedVerifyInterval(64)
		defer core.SetPackedVerifyInterval(core.DefaultPackedVerifyInterval)
		// Warm each family's cached probe state (plan, operands,
		// reference oracle) so the probes the sentinel fires during the
		// timed window run at their allocation-free steady state.
		for _, name := range core.KernelFamilyNames() {
			if err := core.VerifyKernelFamily(name); err != nil {
				b.Fatal(err)
			}
		}
		rt := serve.New(serve.Config{
			SentinelInterval: 2 * time.Millisecond,
			Options:          core.Options{Threads: 1},
		})
		defer rt.Close()
		runPackedPooled(b)
	})
}

// BenchmarkSeparableSteadyState is the depthwise-separable fusion
// acceptance bench: a MobileNet-style dw3×3→pw1×1 block at steady
// state (plans cached, filters packed, outputs preallocated), fused
// through one SeparablePlan versus the strongest unfused composition
// — a cached DepthwisePlan feeding the same pointwise plan through a
// preallocated full intermediate. The fused sub-bench must report 0
// allocs/op (the deterministic counterpart is
// core.TestSeparablePackedZeroAllocs); the unfused sub-bench pays the
// intermediate's memory traffic, and EXPERIMENTS.md records the
// measured fusion speedup.
func BenchmarkSeparableSteadyState(b *testing.B) {
	ss := core.SeparableShape{N: 1, C: 32, H: 28, W: 28, K: 64, R: 3, S: 3, Str: 1, Pad: 1}
	in := tensor.New(ss.N, ss.C, ss.H, ss.W)
	in.FillRandom(1)
	dwF := tensor.New(ss.C, ss.R, ss.S)
	dwF.FillRandom(2)
	pwF := tensor.New(ss.K, ss.C, 1, 1)
	pwF.FillRandom(3)
	sepFLOPs := int64(2*ss.N*ss.C*ss.P()*ss.Q()) * int64(ss.R*ss.S+ss.K)

	fused, err := core.TryNewSeparablePlan(ss, core.Options{Threads: 1})
	if err != nil {
		b.Fatal(err)
	}
	pdw, ppw, err := fused.TransformFilters(dwF, pwF)
	if err != nil {
		b.Fatal(err)
	}
	defer pdw.Release()
	defer ppw.Release()
	out := tensor.New(ss.N, ss.K, ss.P(), ss.Q())

	b.Run("fused", func(b *testing.B) {
		if err := fused.TryExecutePacked(in, pdw, ppw, out); err != nil { // warm scratch
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fused.TryExecutePacked(in, pdw, ppw, out); err != nil {
				b.Fatal(err)
			}
		}
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(sepFLOPs)*float64(b.N)/sec/1e9, "GFLOPS")
		}
	})

	b.Run("unfused", func(b *testing.B) {
		dwPlan, err := core.TryNewDepthwisePlan(ss.DWShape(), core.Options{Threads: 1})
		if err != nil {
			b.Fatal(err)
		}
		mid := tensor.New(ss.N, ss.C, ss.P(), ss.Q())
		pwPlan := fused.PointwisePlan()
		if err := dwPlan.TryExecutePacked(in, pdw, mid); err != nil { // warm scratch
			b.Fatal(err)
		}
		if err := pwPlan.TryExecutePacked(mid, ppw, out); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dwPlan.TryExecutePacked(in, pdw, mid); err != nil {
				b.Fatal(err)
			}
			if err := pwPlan.TryExecutePacked(mid, ppw, out); err != nil {
				b.Fatal(err)
			}
		}
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(sepFLOPs)*float64(b.N)/sec/1e9, "GFLOPS")
		}
	})
}

// BenchmarkSmallConvServing is the per-call-overhead acceptance bench:
// on a small serving shape the one-shot path (the public stateless
// API: fresh plan, on-the-fly filter transform and a new output tensor
// every call — the seed serving behaviour) pays a fixed cost
// comparable to the kernel itself, and the steady-state packed path
// must win by well over 20% ns/op with zero allocations.
func BenchmarkSmallConvServing(b *testing.B) {
	s := conv.Shape{N: 1, C: 8, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(1)
	w := s.NewFilter()
	w.FillRandom(2)
	out := s.NewOutput()

	b.Run("one-shot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ndirect.Conv2D(ndirect.Shape(s), in, w, ndirect.Options{Threads: 1})
		}
	})
	// steady is a packed execution of a warm plan for s; pointwise-steady
	// is a 1×1 stride-1 one, which runs the pointwise body where the host
	// has AVX-512.
	pw := conv.Shape{N: 1, C: 32, H: 28, W: 28, K: 64, R: 1, S: 1, Str: 1}
	pwIn, pwW, pwOut := pw.NewInput(), pw.NewFilter(), pw.NewOutput()
	pwIn.FillRandom(3)
	pwW.FillRandom(4)
	for _, c := range []struct {
		name       string
		s          conv.Shape
		in, w, out *tensor.Tensor
	}{{"steady", s, in, w, out}, {"pointwise-steady", pw, pwIn, pwW, pwOut}} {
		b.Run(c.name, func(b *testing.B) {
			p := core.NewPlan(c.s, core.Options{Threads: 1})
			pf, err := p.TransformFilter(c.w)
			if err != nil {
				b.Fatal(err)
			}
			if err := p.TryExecutePacked(c.in, pf, c.out); err != nil { // warm scratch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.TryExecutePacked(c.in, pf, c.out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
