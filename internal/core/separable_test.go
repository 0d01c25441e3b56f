package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
	"ndirect/internal/tensor"
)

// sepShapes is the separable battery: MobileNet-class stride-1 and
// stride-2 blocks, ragged Q tails, ragged K (not a multiple of the
// V_k=8 block), C not a multiple of the pointwise Tc, and a multi-
// batch case.
var sepShapes = []SeparableShape{
	{N: 1, C: 8, H: 14, W: 14, K: 16, R: 3, S: 3, Str: 1, Pad: 1},
	{N: 2, C: 5, H: 11, W: 11, K: 7, R: 3, S: 3, Str: 1, Pad: 1},
	{N: 1, C: 6, H: 13, W: 13, K: 12, R: 3, S: 3, Str: 2, Pad: 1},
	{N: 1, C: 3, H: 9, W: 5, K: 10, R: 3, S: 3, Str: 1, Pad: 1},
	{N: 1, C: 4, H: 10, W: 10, K: 9, R: 5, S: 5, Str: 1, Pad: 2},
	{N: 1, C: 32, H: 28, W: 28, K: 64, R: 3, S: 3, Str: 1, Pad: 1},
	{N: 1, C: 16, H: 28, W: 28, K: 32, R: 3, S: 3, Str: 2, Pad: 1},
}

func sepOperands(sh SeparableShape, seed int64) (in, dwF, pwF *tensor.Tensor) {
	in = tensor.New(sh.N, sh.C, sh.H, sh.W)
	dwF = tensor.New(sh.C, sh.R, sh.S)
	pwF = tensor.New(sh.K, sh.C, 1, 1)
	in.FillRandom(seed)
	dwF.FillRandom(seed + 1)
	pwF.FillRandom(seed + 2)
	return
}

// sepUnfused computes the block as the existing two-call composition:
// depthwise plan (with the depthwise-stage epilogue) into a full
// intermediate, then the standard pointwise plan (with the pointwise
// epilogue) — the reference the fused path must match bit-for-bit.
func sepUnfused(t *testing.T, sh SeparableShape, in, dwF, pwF *tensor.Tensor, opt Options) *tensor.Tensor {
	t.Helper()
	dwOpt := opt
	dwOpt.FusedEpilogue = opt.DepthwiseEpilogue
	dwOpt.DepthwiseEpilogue = nil
	dp, err := TryNewDepthwisePlan(sh.DWShape(), dwOpt)
	if err != nil {
		t.Fatalf("unfused depthwise plan: %v", err)
	}
	dw := sh.DWShape()
	mid := tensor.New(sh.N, sh.C, dw.P(), dw.Q())
	if err := dp.TryExecute(in, dwF, mid); err != nil {
		t.Fatalf("unfused depthwise: %v", err)
	}
	pwOpt := opt
	pwOpt.DepthwiseEpilogue = nil
	out, err := TryPointwiseConv2DShape(sh.PWShape(), mid, pwF, pwOpt)
	if err != nil {
		t.Fatalf("unfused pointwise: %v", err)
	}
	return out
}

func TestSeparableMatchesComposition(t *testing.T) {
	for _, sh := range sepShapes {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%+v/t%d", sh, threads), func(t *testing.T) {
				in, dwF, pwF := sepOperands(sh, 101)
				opt := Options{Threads: threads}
				got, err := TrySeparableConv2D(sh, in, dwF, pwF, opt)
				if err != nil {
					t.Fatalf("TrySeparableConv2D: %v", err)
				}
				want := sepUnfused(t, sh, in, dwF, pwF, opt)
				if d := tensor.MaxAbsDiff(got, want); d != 0 {
					t.Fatalf("fused diverges from two-call composition by %g", d)
				}
			})
		}
	}
}

// TestSeparableEpilogues proves the split epilogue routing: depthwise
// BN+ReLU via DepthwiseEpilogue, pointwise bias/affine/ReLU via
// FusedEpilogue — each bit-identical to applying the same epilogue on
// the corresponding unfused stage.
func TestSeparableEpilogues(t *testing.T) {
	sh := SeparableShape{N: 1, C: 6, H: 12, W: 12, K: 10, R: 3, S: 3, Str: 1, Pad: 1}
	in, dwF, pwF := sepOperands(sh, 131)
	dwEp := &EpilogueParams{Bias: make([]float32, sh.C), Scale: make([]float32, sh.C), Shift: make([]float32, sh.C), ReLU: true}
	pwEp := &EpilogueParams{Bias: make([]float32, sh.K), Scale: make([]float32, sh.K), Shift: make([]float32, sh.K), ReLU: true}
	for c := 0; c < sh.C; c++ {
		dwEp.Bias[c] = 0.125 * float32(c)
		dwEp.Scale[c] = 1 + 0.0625*float32(c)
		dwEp.Shift[c] = -0.25 + 0.03125*float32(c)
	}
	for k := 0; k < sh.K; k++ {
		pwEp.Bias[k] = -0.125 * float32(k)
		pwEp.Scale[k] = 1 - 0.03125*float32(k)
		pwEp.Shift[k] = 0.0625 * float32(k)
	}
	cases := []struct {
		name string
		opt  Options
	}{
		{"dw-only", Options{DepthwiseEpilogue: dwEp}},
		{"pw-only", Options{FusedEpilogue: pwEp}},
		{"both", Options{DepthwiseEpilogue: dwEp, FusedEpilogue: pwEp}},
		// Named for the removed Epilogue enum, whose bias+ReLU form this was.
		{"pw-enum", Options{DepthwiseEpilogue: dwEp, FusedEpilogue: &EpilogueParams{Bias: pwEp.Bias, ReLU: true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opt.Threads = 2
			got, err := TrySeparableConv2D(sh, in, dwF, pwF, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			want := sepUnfused(t, sh, in, dwF, pwF, tc.opt)
			if d := tensor.MaxAbsDiff(got, want); d != 0 {
				t.Fatalf("epilogue case %s diverges by %g", tc.name, d)
			}
		})
	}
}

// TestSeparableLadderOptions runs the fused path under forced cache
// tiles and thread counts and confirms bit-identity holds with
// matching options on both sides.
func TestSeparableLadderOptions(t *testing.T) {
	sh := SeparableShape{N: 1, C: 8, H: 14, W: 14, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	in, dwF, pwF := sepOperands(sh, 151)
	opts := []Options{
		{Threads: 1, ForceTc: 4, ForceTk: 1, ForceTh: 1},
		{Threads: 2, ForceTc: 3},
	}
	for i, opt := range opts {
		got, err := TrySeparableConv2D(sh, in, dwF, pwF, opt)
		if err != nil {
			t.Fatalf("opts[%d]: %v", i, err)
		}
		want := sepUnfused(t, sh, in, dwF, pwF, opt)
		if d := tensor.MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("opts[%d] diverges by %g", i, d)
		}
	}
}

func TestSeparablePackedMatchesUnpacked(t *testing.T) {
	sh := SeparableShape{N: 1, C: 8, H: 14, W: 14, K: 12, R: 3, S: 3, Str: 2, Pad: 1}
	in, dwF, pwF := sepOperands(sh, 171)
	p, err := TryNewSeparablePlan(sh, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	pdw, ppw, err := p.TransformFilters(dwF, pwF)
	if err != nil {
		t.Fatal(err)
	}
	a := tensor.New(sh.N, sh.K, sh.P(), sh.Q())
	b := tensor.New(sh.N, sh.K, sh.P(), sh.Q())
	if err := p.TryExecute(in, dwF, pwF, a); err != nil {
		t.Fatal(err)
	}
	if err := p.TryExecutePacked(in, pdw, ppw, b); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(a, b); d != 0 {
		t.Fatalf("packed vs unpacked diverge by %g", d)
	}
	// The pointwise artifact is the standard PackedFilter: it also
	// serves a standalone pointwise plan.
	if !ppw.CompatibleWith(p.PointwisePlan()) {
		t.Fatal("pointwise pack incompatible with its own plan")
	}
	// Released artifacts fail typed.
	pdw.Release()
	if err := p.TryExecutePacked(in, pdw, ppw, b); !errors.Is(err, ErrWeightsReleased) {
		t.Fatalf("released dw pack = %v, want ErrWeightsReleased", err)
	}
}

func TestSeparableShapeValidation(t *testing.T) {
	good := SeparableShape{N: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("good shape rejected: %v", err)
	}
	bad := []SeparableShape{
		{N: 0, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1},
		{N: 1, C: 0, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1},
		{N: 1, C: 4, H: 8, W: 8, K: 0, R: 3, S: 3, Str: 1, Pad: 1},
		{N: 1, C: 4, H: 2, W: 2, K: 8, R: 5, S: 5, Str: 1, Pad: 0}, // filter larger than padded input
		{N: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 0, Pad: 1},
	}
	for i, sh := range bad {
		if err := sh.Validate(); !errors.Is(err, conv.ErrBadShape) {
			t.Fatalf("bad[%d]: got %v, want ErrBadShape", i, err)
		}
		if _, err := TryNewSeparablePlan(sh, Options{}); !errors.Is(err, conv.ErrBadShape) {
			t.Fatalf("bad[%d] plan: got %v, want ErrBadShape", i, err)
		}
	}
	// Mis-sized depthwise-stage epilogue fails typed.
	if _, err := TryNewSeparablePlan(good, Options{DepthwiseEpilogue: &EpilogueParams{Bias: make([]float32, good.C+1)}}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("bad dw epilogue = %v, want ErrBadOptions", err)
	}
}

func TestPointwiseShapeValidation(t *testing.T) {
	sh := SeparableShape{N: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	in := tensor.New(1, 4, 8, 8)
	f := tensor.New(8, 4, 1, 1)
	in.FillRandom(3)
	f.FillRandom(4)
	// A non-pointwise geometry fails typed.
	s := sh.DWShape() // 3×3 — not pointwise
	if _, err := TryPointwiseConv2DShape(s, in, f, Options{}); !errors.Is(err, conv.ErrBadShape) {
		t.Fatalf("3×3 shape = %v, want ErrBadShape", err)
	}
	if _, err := TryPointwiseConv2DShape(conv.Shape{N: 1, C: 0, H: 8, W: 8, K: 8, R: 1, S: 1, Str: 1, Pad: 0}, in, f, Options{}); !errors.Is(err, conv.ErrBadShape) {
		t.Fatalf("C=0 = %v, want ErrBadShape", err)
	}
	// PointwiseShape builds the geometry the entry point accepts, and
	// the result is the standard path's.
	a, err := TryPointwiseConv2DShape(PointwiseShape(1, 4, 8, 8, 8), in, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TryConv2D(sh.PWShape(), in, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(a, b); d != 0 {
		t.Fatalf("pointwise entry point diverges from TryConv2D by %g", d)
	}
}

// TestSeparableFaultRecovery: the fused path's typed-error-or-bit-exact
// contract under injection.
func TestSeparableFaultRecovery(t *testing.T) {
	sh := SeparableShape{N: 1, C: 8, H: 16, W: 16, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	in, dwF, pwF := sepOperands(sh, 191)
	opt := Options{Threads: 4}
	want := sepUnfused(t, sh, in, dwF, pwF, opt)

	t.Run("worker-panic", func(t *testing.T) {
		defer faultinject.Reset()
		faultinject.Arm(faultinject.WorkerPanic, 0)
		got, err := TrySeparableConv2D(sh, in, dwF, pwF, opt)
		if err != nil {
			t.Fatalf("panic recovery: %v", err)
		}
		if d := tensor.MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("recovered output diverges by %g", d)
		}
	})

	t.Run("scratch-overrun", func(t *testing.T) {
		defer faultinject.Reset()
		faultinject.Arm(faultinject.ScratchOverrun, 0)
		trips0 := IntegritySnapshot().ScratchCanaryTrips
		p, err := TryNewSeparablePlan(sh, opt)
		if err != nil {
			t.Fatal(err)
		}
		out := tensor.New(sh.N, sh.K, sh.P(), sh.Q())
		if err := p.TryExecute(in, dwF, pwF, out); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("overrun = %v, want ErrIntegrity", err)
		}
		if trips := IntegritySnapshot().ScratchCanaryTrips; trips <= trips0 {
			t.Fatal("canary trip not counted")
		}
		// The quarantined run state must not be reused: a clean retry
		// succeeds bit-exactly on fresh scratch.
		faultinject.Reset()
		if err := p.TryExecute(in, dwF, pwF, out); err != nil {
			t.Fatalf("post-quarantine retry: %v", err)
		}
		if d := tensor.MaxAbsDiff(out, want); d != 0 {
			t.Fatalf("retry diverges by %g", d)
		}
	})

	t.Run("packed-corrupt", func(t *testing.T) {
		defer faultinject.Reset()
		p, err := TryNewSeparablePlan(sh, opt)
		if err != nil {
			t.Fatal(err)
		}
		pdw, ppw, err := p.TransformFilters(dwF, pwF)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Arm(faultinject.PackedCorrupt, 2)
		out := tensor.New(sh.N, sh.K, sh.P(), sh.Q())
		if err := p.TryExecutePacked(in, pdw, ppw, out); err != nil {
			t.Fatalf("packed-corrupt recovery: %v", err)
		}
		if d := tensor.MaxAbsDiff(out, want); d != 0 {
			t.Fatalf("recovered output diverges by %g", d)
		}
	})

	t.Run("weight-bitflip", func(t *testing.T) {
		defer faultinject.Reset()
		p, err := TryNewSeparablePlan(sh, opt)
		if err != nil {
			t.Fatal(err)
		}
		pdw, ppw, err := p.TransformFilters(dwF, pwF)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Arm(faultinject.WeightBitflip, 2)
		out := tensor.New(sh.N, sh.K, sh.P(), sh.Q())
		if err := p.TryExecutePacked(in, pdw, ppw, out); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("bitflip = %v, want ErrIntegrity", err)
		}
	})
}

// TestSeparableConcurrent: one shared fused plan under -race.
func TestSeparableConcurrent(t *testing.T) {
	sh := SeparableShape{N: 1, C: 8, H: 20, W: 20, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	in, dwF, pwF := sepOperands(sh, 211)
	opt := Options{Threads: 2}
	want := sepUnfused(t, sh, in, dwF, pwF, opt)
	p, err := TryNewSeparablePlan(sh, opt)
	if err != nil {
		t.Fatal(err)
	}
	pdw, ppw, err := p.TransformFilters(dwF, pwF)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, iters = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := tensor.New(sh.N, sh.K, sh.P(), sh.Q())
			for i := 0; i < iters; i++ {
				var err error
				if (g+i)%2 == 0 {
					err = p.TryExecute(in, dwF, pwF, out)
				} else {
					err = p.TryExecutePacked(in, pdw, ppw, out)
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %w", g, i, err)
					return
				}
				if d := tensor.MaxAbsDiff(out, want); d != 0 {
					errs <- fmt.Errorf("goroutine %d iter %d: diverges by %g", g, i, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSeparablePackedZeroAllocs gates the fused steady-state contract.
func TestSeparablePackedZeroAllocs(t *testing.T) {
	sh := SeparableShape{N: 1, C: 16, H: 28, W: 28, K: 32, R: 3, S: 3, Str: 1, Pad: 1}
	in, dwF, pwF := sepOperands(sh, 223)
	p, err := TryNewSeparablePlan(sh, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	pdw, ppw, err := p.TransformFilters(dwF, pwF)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(sh.N, sh.K, sh.P(), sh.Q())
	for i := 0; i < 3; i++ {
		if err := p.TryExecutePacked(in, pdw, ppw, out); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := p.TryExecutePacked(in, pdw, ppw, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("packed separable steady state allocates %v/op, want 0", allocs)
	}
}

// TestSeparableNeverMaterializesIntermediate pins the memory contract:
// the fused plan's total scratch is the per-worker row tile, strictly
// smaller than the full intermediate for any multi-tile shape.
func TestSeparableNeverMaterializesIntermediate(t *testing.T) {
	sh := SeparableShape{N: 1, C: 32, H: 112, W: 112, K: 64, R: 3, S: 3, Str: 1, Pad: 1}
	p, err := TryNewSeparablePlan(sh, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	perWorker := p.ScratchBytes()
	full := p.IntermediateBytes()
	if total := perWorker * int64(len(p.ranges)); total >= full {
		t.Fatalf("fused scratch %d B (×%d workers) not smaller than full intermediate %d B",
			perWorker, len(p.ranges), full)
	}
	if p.rowTile >= sh.P() {
		t.Fatalf("rowTile=%d covers the whole output height %d: fusion degenerates to materialization", p.rowTile, sh.P())
	}
}

// TestSeparableCellsSplitEvenly: at two workers the fused MobileNet
// blocks 29–30 and 31–32 give every worker the same number of grid
// cells, within the cache bound on the row-tile intermediate.
func TestSeparableCellsSplitEvenly(t *testing.T) {
	for _, ids := range [][2]int{{29, 30}, {31, 32}} {
		dw, ok1 := conv.LayerByID(ids[0])
		pw, ok2 := conv.LayerByID(ids[1])
		if !ok1 || !ok2 {
			t.Fatalf("rows %v missing", ids)
		}
		d := dw.Shape
		sh := SeparableShape{N: 1, C: d.C, H: d.H, W: d.W, K: pw.Shape.K, R: d.R, S: d.S, Str: d.Str, Pad: d.Pad}
		p, err := TryNewSeparablePlan(sh, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, rg := range p.ranges {
			if got, want := rg.Hi-rg.Lo, p.cells/len(p.ranges); got != want || p.cells%len(p.ranges) != 0 {
				t.Fatalf("rows %v: %d cells of %d rows over %d workers split %v", ids, p.cells, p.rowTile, len(p.ranges), p.ranges)
			}
		}
		if 4*p.midLen > sepMidBudget {
			t.Fatalf("rows %v: %d-row tile needs %d bytes of intermediate, over the %d budget", ids, p.rowTile, 4*p.midLen, sepMidBudget)
		}
	}
}
