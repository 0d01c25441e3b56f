package core

import (
	"sync"
	"testing"
	"testing/quick"

	"ndirect/internal/conv"
	"ndirect/internal/hw"
	"ndirect/internal/tensor"
)

// tol is the acceptable relative FP32 error between nDirect and the
// float64-accumulating reference (different accumulation orders).
const tol = 2e-5

func checkAgainstReference(t *testing.T, s conv.Shape, opt Options) {
	t.Helper()
	in := s.NewInput()
	in.FillRandom(int64(s.C*1000 + s.K))
	f := s.NewFilter()
	f.FillRandom(int64(s.R*100 + s.S))
	want := conv.Reference(s, in, f)
	got := Conv2D(s, in, f, opt)
	if d := tensor.RelDiff(want, got); d > tol {
		t.Fatalf("shape %v: rel diff %g > %g", s, d, tol)
	}
}

func TestConv2DMatchesReferenceBasic3x3(t *testing.T) {
	checkAgainstReference(t, conv.Shape{N: 1, C: 8, H: 16, W: 16, K: 16, R: 3, S: 3, Str: 1, Pad: 1}, Options{})
}

func TestConv2DMatchesReference1x1(t *testing.T) {
	checkAgainstReference(t, conv.Shape{N: 2, C: 16, H: 14, W: 14, K: 32, R: 1, S: 1, Str: 1, Pad: 0}, Options{})
}

func TestConv2DMatchesReferenceStride2(t *testing.T) {
	checkAgainstReference(t, conv.Shape{N: 1, C: 8, H: 16, W: 16, K: 8, R: 3, S: 3, Str: 2, Pad: 1}, Options{})
	checkAgainstReference(t, conv.Shape{N: 1, C: 8, H: 16, W: 16, K: 8, R: 1, S: 1, Str: 2, Pad: 0}, Options{})
}

func TestConv2DMatchesReference7x7Stride2(t *testing.T) {
	// ResNet conv1 geometry (scaled down): 7x7 stride 2 pad 3, the stem
	// family.
	checkAgainstReference(t, conv.Shape{N: 1, C: 3, H: 32, W: 32, K: 16, R: 7, S: 7, Str: 2, Pad: 3}, Options{})
}

func TestConv2DMatchesReferenceNoPadding(t *testing.T) {
	checkAgainstReference(t, conv.Shape{N: 1, C: 4, H: 12, W: 12, K: 8, R: 3, S: 3, Str: 1, Pad: 0}, Options{})
}

func TestConv2DRaggedEdges(t *testing.T) {
	// Q=7 < Vw=12 forces partial register tiles; K=13 forces a ragged
	// K block; C=5 forces a partial channel tile.
	checkAgainstReference(t, conv.Shape{N: 1, C: 5, H: 7, W: 7, K: 13, R: 3, S: 3, Str: 1, Pad: 1}, Options{})
}

func TestConv2DLargeChannelTiles(t *testing.T) {
	// C larger than Tc exercises multi-pass output accumulation.
	checkAgainstReference(t, conv.Shape{N: 1, C: 200, H: 8, W: 8, K: 24, R: 3, S: 3, Str: 1, Pad: 1}, Options{ForceTc: 48})
}

func TestConv2DMultiKTile(t *testing.T) {
	checkAgainstReference(t, conv.Shape{N: 1, C: 8, H: 8, W: 8, K: 64, R: 3, S: 3, Str: 1, Pad: 1}, Options{ForceTk: 16})
}

func TestConv2DSmallTh(t *testing.T) {
	checkAgainstReference(t, conv.Shape{N: 1, C: 8, H: 16, W: 16, K: 8, R: 3, S: 3, Str: 1, Pad: 1}, Options{ForceTh: 2})
}

func TestConv2DSequentialPackMatches(t *testing.T) {
	s := conv.Shape{N: 2, C: 16, H: 14, W: 14, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(1)
	f := s.NewFilter()
	f.FillRandom(2)
	overlapped := Conv2D(s, in, f, Options{})
	sequential := Conv2D(s, in, f, Options{SequentialPack: true})
	if d := tensor.MaxAbsDiff(overlapped, sequential); d != 0 {
		t.Fatalf("overlapped and sequential packing must be bit-identical, diff %g", d)
	}
}

func TestConv2DMultiThreadMatchesSingle(t *testing.T) {
	s := conv.Shape{N: 4, C: 16, H: 14, W: 14, K: 32, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(5)
	f := s.NewFilter()
	f.FillRandom(6)
	one := Conv2D(s, in, f, Options{Threads: 1})
	many := Conv2D(s, in, f, Options{Threads: 8})
	if d := tensor.MaxAbsDiff(one, many); d != 0 {
		t.Fatalf("thread count must not change results, diff %g", d)
	}
}

func TestConv2DPlatformsAllCorrect(t *testing.T) {
	s := conv.Shape{N: 1, C: 24, H: 14, W: 14, K: 24, R: 3, S: 3, Str: 1, Pad: 1}
	for _, p := range hw.Platforms {
		pp := p
		checkAgainstReference(t, s, Options{Platform: &pp, Threads: 4})
	}
}

func TestConv2DNHWCMatchesReference(t *testing.T) {
	s := conv.Shape{N: 2, C: 8, H: 12, W: 12, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(9)
	f := s.NewFilter()
	f.FillRandom(10)
	want := conv.Reference(s, in, f)
	gotNHWC := Conv2DNHWC(s, tensor.NCHWToNHWC(in), f, Options{})
	got := tensor.NHWCToNCHW(gotNHWC)
	if d := tensor.RelDiff(want, got); d > tol {
		t.Fatalf("NHWC rel diff %g", d)
	}
}

func TestConv2DNHWCStride2(t *testing.T) {
	s := conv.Shape{N: 1, C: 8, H: 16, W: 16, K: 8, R: 3, S: 3, Str: 2, Pad: 1}
	in := s.NewInput()
	in.FillRandom(11)
	f := s.NewFilter()
	f.FillRandom(12)
	want := conv.Reference(s, in, f)
	got := tensor.NHWCToNCHW(Conv2DNHWC(s, tensor.NCHWToNHWC(in), f, Options{}))
	if d := tensor.RelDiff(want, got); d > tol {
		t.Fatalf("NHWC stride-2 rel diff %g", d)
	}
}

func TestEpilogueBias(t *testing.T) {
	s := conv.Shape{N: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(1)
	f := s.NewFilter()
	f.FillRandom(2)
	bias := make([]float32, s.K)
	for i := range bias {
		bias[i] = float32(i) * 0.25
	}
	want := conv.Reference(s, in, f)
	got := Conv2D(s, in, f, Options{FusedEpilogue: &EpilogueParams{Bias: bias}})
	p, q := s.P(), s.Q()
	for k := 0; k < s.K; k++ {
		for i := 0; i < p*q; i++ {
			w := want.Data[k*p*q+i] + bias[k]
			g := got.Data[k*p*q+i]
			if d := w - g; d > 1e-4 || d < -1e-4 {
				t.Fatalf("bias mismatch at k=%d i=%d: %v vs %v", k, i, g, w)
			}
		}
	}
}

func TestEpilogueReLU(t *testing.T) {
	s := conv.Shape{N: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(3)
	f := s.NewFilter()
	f.FillRandom(4)
	got := Conv2D(s, in, f, Options{FusedEpilogue: &EpilogueParams{ReLU: true}})
	want := conv.Reference(s, in, f)
	anyClamped := false
	for i := range got.Data {
		if got.Data[i] < 0 {
			t.Fatal("ReLU output must be non-negative")
		}
		if want.Data[i] < 0 {
			anyClamped = true
			if got.Data[i] != 0 {
				t.Fatalf("negative value %v not clamped", want.Data[i])
			}
		}
	}
	if !anyClamped {
		t.Fatal("test vector produced no negatives; not exercising ReLU")
	}
}

func TestEpilogueBiasLengthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong bias length")
		}
	}()
	NewPlan(conv.Shape{N: 1, C: 1, H: 4, W: 4, K: 4, R: 1, S: 1, Str: 1, Pad: 0},
		Options{FusedEpilogue: &EpilogueParams{Bias: make([]float32, 3)}})
}

func TestExecuteOverwritesDirtyOutput(t *testing.T) {
	s := conv.Shape{N: 1, C: 4, H: 8, W: 8, K: 4, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(7)
	f := s.NewFilter()
	f.FillRandom(8)
	p := NewPlan(s, Options{})
	clean := s.NewOutput()
	p.Execute(in, f, clean)
	dirty := s.NewOutput()
	dirty.Fill(123)
	p.Execute(in, f, dirty)
	if tensor.MaxAbsDiff(clean, dirty) != 0 {
		t.Fatal("Execute must fully overwrite the output")
	}
}

func TestNewPlanInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPlan(conv.Shape{}, Options{})
}

func TestStatsCollected(t *testing.T) {
	s := conv.Shape{N: 1, C: 16, H: 14, W: 14, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(1)
	f := s.NewFilter()
	f.FillRandom(2)
	p := NewPlan(s, Options{CollectStats: true, SequentialPack: true, Threads: 1})
	out := s.NewOutput()
	p.Execute(in, f, out)
	st0 := p.LastStats()
	if st0.KernelSec <= 0 || st0.PackSec <= 0 || st0.TransformSec <= 0 {
		t.Fatalf("stats not collected: %+v", st0)
	}
	tr, pk, kn, st := st0.Fractions()
	if sum := tr + pk + kn + st; sum < 0.999 || sum > 1.001 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func TestStatsOverlappedPackCountsInKernel(t *testing.T) {
	s := conv.Shape{N: 1, C: 16, H: 14, W: 14, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(1)
	f := s.NewFilter()
	f.FillRandom(2)
	p := NewPlan(s, Options{CollectStats: true, Threads: 1})
	out := s.NewOutput()
	p.Execute(in, f, out)
	if got := p.LastStats().PackSec; got != 0 {
		t.Fatalf("overlapped packing must report no separate pack time, got %v", got)
	}
}

// Property: nDirect agrees with the reference on random small shapes
// spanning kernels {1,3,5}, strides {1,2}, and ragged dimensions.
func TestConv2DRandomShapesProperty(t *testing.T) {
	f := func(cRaw, kRaw, hRaw, rIdx, strRaw uint8, seed int64) bool {
		rs := []int{1, 3, 5}[int(rIdx)%3]
		str := int(strRaw)%2 + 1
		pad := rs / 2
		s := conv.Shape{
			N: 1, C: int(cRaw)%13 + 1,
			H: int(hRaw)%12 + rs, W: int(hRaw)%14 + rs,
			K: int(kRaw)%21 + 1, R: rs, S: rs, Str: str, Pad: pad,
		}
		in := s.NewInput()
		in.FillRandom(seed)
		fl := s.NewFilter()
		fl.FillRandom(seed + 1)
		want := conv.Reference(s, in, fl)
		got := Conv2D(s, in, fl, Options{})
		return tensor.RelDiff(want, got) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTable4LayersCorrectSmallBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 sweep is slow")
	}
	// Shrink the spatial dims of large layers to keep the reference
	// oracle tractable while preserving kernel/stride/channel
	// structure.
	for _, l := range conv.Table4 {
		s := l.Shape
		if s.H > 28 {
			s.H, s.W = 28, 28
		}
		if s.C > 256 {
			s.C = 256
		}
		if s.K > 256 {
			s.K = 256
		}
		in := s.NewInput()
		in.FillRandom(int64(l.ID))
		f := s.NewFilter()
		f.FillRandom(int64(l.ID) + 100)
		want := conv.Reference(s, in, f)
		got := Conv2D(s, in, f, Options{})
		if d := tensor.RelDiff(want, got); d > tol {
			t.Fatalf("layer %d (%v): rel diff %g", l.ID, s, d)
		}
	}
}

func TestSpecialisedKernelsBitIdenticalToGeneric(t *testing.T) {
	// The standard family's bodies on 3×3 and 1×1 shapes must produce
	// bit-identical results to the looped kernel12x8 a quarantined family
	// falls back to (same operation order per output).
	for _, s := range []conv.Shape{
		{N: 1, C: 16, H: 14, W: 14, K: 16, R: 3, S: 3, Str: 1, Pad: 1},
		{N: 1, C: 16, H: 14, W: 14, K: 16, R: 1, S: 1, Str: 1, Pad: 0},
		{N: 1, C: 7, H: 9, W: 11, K: 13, R: 3, S: 3, Str: 1, Pad: 1},
	} {
		in := s.NewInput()
		in.FillRandom(1)
		f := s.NewFilter()
		f.FillRandom(2)
		p := NewPlan(s, Options{Threads: 1})
		family := p.KernelName()
		spec := s.NewOutput()
		p.Execute(in, f, spec)
		QuarantineKernelFamily(family)
		looped := s.NewOutput()
		p.Execute(in, f, looped)
		RestoreKernelFamily(family)
		if d := tensor.MaxAbsDiff(spec, looped); d != 0 {
			t.Fatalf("%v: family %s differs from the looped kernel by %g", s, family, d)
		}
	}
}

func TestKernelDispatchSelection(t *testing.T) {
	// Every standard plan is on the 12×8 register file and binds the
	// standard family, whatever its (R, S, stride) — the shapes that once
	// had a family of their own and those that ran the looped kernel
	// alike — and computes correctly; a 1×1 stride-1 one reports the
	// pointwise family where the host binds it; quarantine hands every
	// plan kernel12x8.
	for _, s := range []conv.Shape{
		{N: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1},
		{N: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 2, Pad: 1},
		{N: 1, C: 4, H: 8, W: 8, K: 8, R: 1, S: 1, Str: 1, Pad: 0},
		{N: 1, C: 4, H: 8, W: 8, K: 8, R: 1, S: 1, Str: 2, Pad: 0},
		// The stem, whose model tile is 20×4, runs the 12×8 tile.
		{N: 1, C: 3, H: 16, W: 16, K: 8, R: 7, S: 7, Str: 2, Pad: 3},
		{N: 1, C: 4, H: 8, W: 8, K: 5, R: 3, S: 3, Str: 1, Pad: 1},
		{N: 1, C: 4, H: 12, W: 12, K: 8, R: 5, S: 5, Str: 1, Pad: 2},
		{N: 1, C: 3, H: 16, W: 16, K: 8, R: 7, S: 7, Str: 1, Pad: 3},
		{N: 1, C: 4, H: 12, W: 12, K: 8, R: 2, S: 2, Str: 2, Pad: 0},
		{N: 2, C: 5, H: 11, W: 13, K: 3, R: 5, S: 5, Str: 1, Pad: 2},
	} {
		p := NewPlan(s, Options{})
		if p.RT.Vw != 12 || p.RT.Vk != 8 || p.KernelName() != wantFamily(s) {
			t.Fatalf("%v: RT %dx%d KernelName %q, want 12x8, %q",
				s, p.RT.Vw, p.RT.Vk, p.KernelName(), wantFamily(s))
		}
		var quarantined string
		withQuarantined(func() { quarantined = p.KernelName() }, standardFamily.name, pixelFamily.name)
		if quarantined != "12x8" {
			t.Fatalf("%v: quarantined KernelName %q, want 12x8", s, quarantined)
		}
		checkAgainstReference(t, s, Options{})
	}
}

func TestConcurrentExecuteSafe(t *testing.T) {
	// A Plan must be safe for concurrent Execute calls with distinct
	// outputs (scratch is per-call).
	s := conv.Shape{N: 1, C: 8, H: 12, W: 12, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(1)
	f := s.NewFilter()
	f.FillRandom(2)
	plan := NewPlan(s, Options{Threads: 2})
	want := s.NewOutput()
	plan.Execute(in, f, want)
	var wg sync.WaitGroup
	outs := make([]*tensor.Tensor, 8)
	for i := range outs {
		outs[i] = s.NewOutput()
		wg.Add(1)
		go func(o *tensor.Tensor) {
			defer wg.Done()
			plan.Execute(in, f, o)
		}(outs[i])
	}
	wg.Wait()
	for i, o := range outs {
		if tensor.MaxAbsDiff(want, o) != 0 {
			t.Fatalf("concurrent execution %d differs", i)
		}
	}
}

func TestMinimalShapes(t *testing.T) {
	// Degenerate dimensions: single channel, single output channel,
	// 1x1 spatial, width smaller than the register tile.
	for _, s := range []conv.Shape{
		{N: 1, C: 1, H: 3, W: 3, K: 1, R: 3, S: 3, Str: 1, Pad: 1},
		{N: 1, C: 1, H: 1, W: 1, K: 1, R: 1, S: 1, Str: 1, Pad: 0},
		{N: 3, C: 2, H: 4, W: 2, K: 3, R: 3, S: 3, Str: 1, Pad: 1},
		{N: 1, C: 2, H: 5, W: 5, K: 2, R: 5, S: 5, Str: 1, Pad: 2},
	} {
		checkAgainstReference(t, s, Options{})
	}
}

func TestLargePadding(t *testing.T) {
	// Padding bigger than the kernel (legal, generates all-halo rows).
	checkAgainstReference(t, conv.Shape{N: 1, C: 2, H: 4, W: 4, K: 2, R: 3, S: 3, Str: 1, Pad: 3}, Options{})
}

func TestExecuteReusesScratch(t *testing.T) {
	// After warm-up, repeated Execute calls must not allocate the
	// per-worker scratch again (sync.Pool reuse).
	s := conv.Shape{N: 1, C: 16, H: 14, W: 14, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(1)
	f := s.NewFilter()
	f.FillRandom(2)
	plan := NewPlan(s, Options{Threads: 1})
	out := s.NewOutput()
	plan.Execute(in, f, out) // warm the pool
	allocs := testing.AllocsPerRun(20, func() { plan.Execute(in, f, out) })
	if allocs > 24 {
		t.Fatalf("Execute allocates %v objects per run; scratch pooling broken", allocs)
	}
}

func TestRectangularKernels(t *testing.T) {
	// R != S is legal throughout (the paper presents square kernels;
	// nothing in the algorithm requires them).
	for _, s := range []conv.Shape{
		{N: 1, C: 4, H: 10, W: 12, K: 8, R: 3, S: 5, Str: 1, Pad: 2},
		{N: 1, C: 4, H: 12, W: 10, K: 8, R: 5, S: 3, Str: 1, Pad: 2},
		{N: 1, C: 2, H: 9, W: 9, K: 4, R: 1, S: 7, Str: 1, Pad: 3},
		{N: 1, C: 2, H: 9, W: 9, K: 4, R: 7, S: 1, Str: 1, Pad: 3},
	} {
		// Pad is symmetric, so the output geometry differs per axis;
		// only check shapes where it stays realisable.
		if !s.Valid() {
			continue
		}
		checkAgainstReference(t, s, Options{})
	}
}
