package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
	"ndirect/internal/tensor"
)

// dwShapes is the depthwise bit-identity battery: both specialized
// 3×3 variants (stride 1 and 2), ragged widths that exercise vector
// interior + halo + scalar tail, pad-0 (no halo), non-3×3 generic
// shapes, multi-batch, and a width narrower than one vector.
var dwShapes = []conv.Shape{
	{N: 1, C: 3, H: 8, W: 8, K: 3, R: 3, S: 3, Str: 1, Pad: 1},
	{N: 2, C: 5, H: 11, W: 11, K: 5, R: 3, S: 3, Str: 1, Pad: 1},
	{N: 1, C: 4, H: 7, W: 7, K: 4, R: 3, S: 3, Str: 1, Pad: 0},
	{N: 1, C: 2, H: 9, W: 3, K: 2, R: 3, S: 3, Str: 1, Pad: 1},
	{N: 1, C: 3, H: 12, W: 12, K: 3, R: 3, S: 3, Str: 2, Pad: 1},
	{N: 2, C: 4, H: 13, W: 9, K: 4, R: 3, S: 3, Str: 2, Pad: 1},
	{N: 1, C: 2, H: 8, W: 8, K: 2, R: 3, S: 3, Str: 2, Pad: 0},
	{N: 1, C: 3, H: 10, W: 10, K: 3, R: 5, S: 5, Str: 1, Pad: 2},
	{N: 1, C: 32, H: 112, W: 112, K: 32, R: 3, S: 3, Str: 1, Pad: 1},
	{N: 1, C: 16, H: 56, W: 56, K: 16, R: 3, S: 3, Str: 2, Pad: 1},
}

// dwOracle computes the depthwise reference: the pre-plan plane loop
// plus the epilogue sweep, per plane.
func dwOracle(s conv.Shape, in, filter *tensor.Tensor, ep *epilogue) *tensor.Tensor {
	pp, q := s.P(), s.Q()
	out := tensor.New(s.N, s.C, pp, q)
	for plane := 0; plane < s.N*s.C; plane++ {
		c := plane % s.C
		dst := out.Data[plane*pp*q : (plane+1)*pp*q]
		depthwisePlaneRange(s, in.Data[plane*s.H*s.W:(plane+1)*s.H*s.W],
			filter.Data[c*s.R*s.S:(c+1)*s.R*s.S], dst, 0, pp)
		if ep != nil && !ep.none {
			applyChannelEpilogue(dst, ep, c)
		}
	}
	return out
}

func dwOperands(s conv.Shape, seed int64) (in, filter *tensor.Tensor) {
	in = tensor.New(s.N, s.C, s.H, s.W)
	filter = tensor.New(s.C, s.R, s.S)
	in.FillRandom(seed)
	filter.FillRandom(seed + 1)
	return in, filter
}

func TestDepthwisePlanMatchesOracle(t *testing.T) {
	for _, s := range dwShapes {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/t%d", s, threads), func(t *testing.T) {
				in, filter := dwOperands(s, 11)
				p, err := TryNewDepthwisePlan(s, Options{Threads: threads})
				if err != nil {
					t.Fatalf("TryNewDepthwisePlan: %v", err)
				}
				out := tensor.New(s.N, s.C, s.P(), s.Q())
				if err := p.TryExecute(in, filter, out); err != nil {
					t.Fatalf("TryExecute: %v", err)
				}
				want := dwOracle(s, in, filter, nil)
				if d := tensor.MaxAbsDiff(out, want); d != 0 {
					t.Fatalf("kernel %s diverges from oracle by %g", p.KernelName(), d)
				}
			})
		}
	}
}

// TestDepthwisePlanGenericMatches cross-checks each specialized variant
// against the oracle body its plan runs under quarantine.
func TestDepthwisePlanGenericMatches(t *testing.T) {
	for _, s := range dwShapes[:7] {
		in, filter := dwOperands(s, 23)
		p, err := TryNewDepthwisePlan(s, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		family := p.KernelName()
		if family == "dw.generic" {
			t.Fatalf("shape %v: expected a specialized variant", s)
		}
		a := tensor.New(s.N, s.C, s.P(), s.Q())
		b := tensor.New(s.N, s.C, s.P(), s.Q())
		if err := p.TryExecute(in, filter, a); err != nil {
			t.Fatal(err)
		}
		QuarantineKernelFamily(family)
		if p.KernelName() != "dw.generic" {
			t.Fatalf("quarantine left %s bound", p.KernelName())
		}
		err = p.TryExecute(in, filter, b)
		RestoreKernelFamily(family)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(a, b); d != 0 {
			t.Fatalf("shape %v: %s vs generic differ by %g", s, family, d)
		}
	}
}

func TestDepthwisePlanFusedEpilogue(t *testing.T) {
	s := conv.Shape{N: 1, C: 6, H: 11, W: 11, K: 6, R: 3, S: 3, Str: 1, Pad: 1}
	in, filter := dwOperands(s, 31)
	bias := make([]float32, s.C)
	scale := make([]float32, s.C)
	shift := make([]float32, s.C)
	for c := 0; c < s.C; c++ {
		bias[c] = float32(c)*0.25 - 0.5
		scale[c] = 1 + float32(c)*0.125
		shift[c] = -0.25 * float32(c)
	}
	cases := []struct {
		name string
		opt  Options
	}{
		{"bias", Options{FusedEpilogue: &EpilogueParams{Bias: bias}}},
		{"bias-relu", Options{FusedEpilogue: &EpilogueParams{Bias: bias, ReLU: true}}},
		{"affine-relu", Options{FusedEpilogue: &EpilogueParams{Scale: scale, Shift: shift, ReLU: true}}},
		{"full", Options{FusedEpilogue: &EpilogueParams{Bias: bias, Scale: scale, Shift: shift, ReLU: true}}},
		// Named for the removed Epilogue enum, whose ReLU-only form this was.
		{"enum-relu", Options{FusedEpilogue: &EpilogueParams{ReLU: true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opt.Threads = 2
			p, err := TryNewDepthwisePlan(s, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			out := tensor.New(s.N, s.C, s.P(), s.Q())
			if err := p.TryExecute(in, filter, out); err != nil {
				t.Fatal(err)
			}
			ep := normalizeEpilogue(tc.opt.FusedEpilogue)
			want := dwOracle(s, in, filter, &ep)
			if d := tensor.MaxAbsDiff(out, want); d != 0 {
				t.Fatalf("epilogue %s diverges by %g", tc.name, d)
			}
		})
	}
}

func TestDepthwisePlanOptionValidation(t *testing.T) {
	s := conv.Shape{N: 1, C: 4, H: 8, W: 8, K: 4, R: 3, S: 3, Str: 1, Pad: 1}
	bad := []Options{
		{Threads: maxThreads + 1},
		{Threads: -1},
		{ForceTh: -2},
		{FusedEpilogue: &EpilogueParams{Bias: make([]float32, s.C+1)}},
		{FusedEpilogue: &EpilogueParams{Scale: make([]float32, s.C)}}, // Shift missing
		{FusedEpilogue: &EpilogueParams{Bias: make([]float32, s.C-1)}},
		{DepthwiseEpilogue: &EpilogueParams{ReLU: true}},
	}
	for i, opt := range bad {
		if _, err := TryNewDepthwisePlan(s, opt); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("case %d: got %v, want ErrBadOptions", i, err)
		}
	}
	if _, err := TryNewDepthwisePlan(conv.Shape{N: 1, C: 0, H: 8, W: 8, K: 1, R: 3, S: 3, Str: 1, Pad: 1}, Options{}); err == nil {
		t.Fatal("C=0 accepted")
	}
	// Standard plans must reject the separable-only option too.
	if _, err := TryNewPlan(s, Options{DepthwiseEpilogue: &EpilogueParams{ReLU: true}}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("TryNewPlan DepthwiseEpilogue = %v, want ErrBadOptions", err)
	}
}

func TestDepthwisePackedRoundTrip(t *testing.T) {
	s := conv.Shape{N: 1, C: 8, H: 14, W: 14, K: 8, R: 3, S: 3, Str: 2, Pad: 1}
	in, filter := dwOperands(s, 47)
	p, err := TryNewDepthwisePlan(s, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := p.TransformFilter(filter)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Bytes() != p.PackedBytes() {
		t.Fatalf("Bytes=%d, PackedBytes=%d", pf.Bytes(), p.PackedBytes())
	}
	if err := pf.Verify(); err != nil {
		t.Fatalf("fresh pack fails verify: %v", err)
	}
	out := tensor.New(s.N, s.C, s.P(), s.Q())
	if err := p.TryExecutePacked(in, pf, out); err != nil {
		t.Fatal(err)
	}
	want := dwOracle(s, in, filter, nil)
	if d := tensor.MaxAbsDiff(out, want); d != 0 {
		t.Fatalf("packed path diverges by %g", d)
	}
	// Corruption is caught typed.
	pf.data[3] += 1
	if err := pf.Verify(); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corrupted pack Verify = %v, want ErrIntegrity", err)
	}
	pf.data[3] -= 1
	// Release fails new executions typed, exactly once.
	if !pf.Release() {
		t.Fatal("first Release returned false")
	}
	if pf.Release() {
		t.Fatal("second Release returned true")
	}
	if err := p.TryExecutePacked(in, pf, out); !errors.Is(err, ErrWeightsReleased) {
		t.Fatalf("released pack = %v, want ErrWeightsReleased", err)
	}
	// Geometry mismatch is rejected.
	other, err := TryNewDepthwisePlan(conv.Shape{N: 1, C: 4, H: 8, W: 8, K: 4, R: 3, S: 3, Str: 1, Pad: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pf2, err := p.TransformFilter(filter)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.TryExecutePacked(in, pf2, out); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("mismatched pack = %v, want ErrBadOptions", err)
	}
}

// TestDepthwisePlanFaultRecovery proves the depthwise path's
// typed-error-or-bit-exact contract under every injected fault the
// standard battery covers.
func TestDepthwisePlanFaultRecovery(t *testing.T) {
	s := conv.Shape{N: 2, C: 6, H: 16, W: 16, K: 6, R: 3, S: 3, Str: 1, Pad: 1}
	in, filter := dwOperands(s, 61)
	want := dwOracle(s, in, filter, nil)

	t.Run("worker-panic", func(t *testing.T) {
		defer faultinject.Reset()
		faultinject.Arm(faultinject.WorkerPanic, 0)
		p, err := TryNewDepthwisePlan(s, Options{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		out := tensor.New(s.N, s.C, s.P(), s.Q())
		if err := p.TryExecute(in, filter, out); err != nil {
			t.Fatalf("panic recovery returned error: %v", err)
		}
		if d := tensor.MaxAbsDiff(out, want); d != 0 {
			t.Fatalf("recovered output diverges by %g", d)
		}
	})

	t.Run("worker-stall-deadline", func(t *testing.T) {
		defer faultinject.Reset()
		faultinject.Arm(faultinject.WorkerStall, 1)
		p, err := TryNewDepthwisePlan(s, Options{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		out := tensor.New(s.N, s.C, s.P(), s.Q())
		err = p.TryExecuteCtx(ctx, in, filter, out)
		faultinject.Reset() // unblock the stalled worker
		if !errors.Is(err, conv.ErrDeadline) {
			t.Fatalf("stalled run = %v, want ErrDeadline", err)
		}
	})

	t.Run("nan-poison", func(t *testing.T) {
		defer faultinject.Reset()
		faultinject.Arm(faultinject.NaNPoison, 5)
		p, err := TryNewDepthwisePlan(s, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		out := tensor.New(s.N, s.C, s.P(), s.Q())
		if err := p.TryExecute(in, filter, out); err != nil {
			t.Fatalf("NaN recovery returned error: %v", err)
		}
		if d := tensor.MaxAbsDiff(out, want); d != 0 {
			t.Fatalf("recovered output diverges by %g", d)
		}
	})

	t.Run("packed-corrupt", func(t *testing.T) {
		defer faultinject.Reset()
		p, err := TryNewDepthwisePlan(s, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		pf, err := p.TransformFilter(filter)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Arm(faultinject.PackedCorrupt, 2)
		out := tensor.New(s.N, s.C, s.P(), s.Q())
		if err := p.TryExecutePacked(in, pf, out); err != nil {
			t.Fatalf("packed-corrupt recovery returned error: %v", err)
		}
		if d := tensor.MaxAbsDiff(out, want); d != 0 {
			t.Fatalf("recovered output diverges by %g", d)
		}
	})

	t.Run("weight-bitflip", func(t *testing.T) {
		defer faultinject.Reset()
		p, err := TryNewDepthwisePlan(s, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		pf, err := p.TransformFilter(filter)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Arm(faultinject.WeightBitflip, 2)
		out := tensor.New(s.N, s.C, s.P(), s.Q())
		if err := p.TryExecutePacked(in, pf, out); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("bitflip = %v, want ErrIntegrity", err)
		}
	})
}

// TestDepthwiseKernelFamilySentinel proves the depthwise families are
// first-class citizens of the sentinel surface: named, verifiable,
// quarantinable (which drops every plan, this one built beforehand, to
// the generic body with identical output), and restorable.
func TestDepthwiseKernelFamilySentinel(t *testing.T) {
	names := KernelFamilyNames()
	found := 0
	for _, n := range names {
		if n == "dw.r3s3.s1" || n == "dw.r3s3.s2" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("KernelFamilyNames missing depthwise families: %v", names)
	}
	for _, fam := range []string{"dw.r3s3.s1", "dw.r3s3.s2"} {
		if err := VerifyKernelFamily(fam); err != nil {
			t.Fatalf("VerifyKernelFamily(%s): %v", fam, err)
		}
	}

	// A plan built before the quarantine, executed through it.
	s := conv.Shape{N: 2, C: 5, H: 9, W: 9, K: 5, R: 3, S: 3, Str: 1, Pad: 1}
	p, err := TryNewDepthwisePlan(s, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	in, filter := tensor.New(s.N, s.C, s.H, s.W), tensor.New(s.C, s.R, s.S)
	in.FillRandom(61)
	filter.FillRandom(62)
	run := func(wantKernel string) *tensor.Tensor {
		t.Helper()
		if got := p.KernelName(); got != wantKernel {
			t.Fatalf("KernelName = %q, want %q", got, wantKernel)
		}
		out := tensor.New(s.N, s.C, s.P(), s.Q())
		if err := p.TryExecute(in, filter, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run("dw.r3s3.s1")
	if !QuarantineKernelFamily("dw.r3s3.s1") {
		t.Fatal("QuarantineKernelFamily did not recognize the depthwise family")
	}
	defer RestoreKernelFamily("dw.r3s3.s1")
	if d := tensor.MaxAbsDiff(run("dw.generic"), want); d != 0 {
		t.Fatalf("quarantined fallback diverges from the family body by %g", d)
	}
	// The probe still runs the family directly, so a clean probe can
	// drive restore.
	if err := VerifyKernelFamily("dw.r3s3.s1"); err != nil {
		t.Fatalf("probe under quarantine: %v", err)
	}
	if !RestoreKernelFamily("dw.r3s3.s1") {
		t.Fatal("RestoreKernelFamily did not recognize the depthwise family")
	}
	if d := tensor.MaxAbsDiff(run("dw.r3s3.s1"), want); d != 0 {
		t.Fatalf("restored family body diverges by %g", d)
	}
}

// TestDepthwiseKernelMiscompute proves VerifyKernelFamily fails typed
// — the evidence the integrity sentinel quarantines on — for each
// depthwise family: under the armed kernel-miscompute fault, and with a
// body that miscomputes only what its 8-wide vector blocks store (the
// last block column of every row). Quarantined, the family's plans run
// the oracle and store the right bits; restored to a sound body, the
// probe is clean again.
func TestDepthwiseKernelMiscompute(t *testing.T) {
	defer faultinject.Reset()
	for _, name := range []string{"dw.r3s3.s1", "dw.r3s3.s2"} {
		if err := VerifyKernelFamily(name); err != nil {
			t.Fatalf("%s: clean probe: %v", name, err)
		}
		faultinject.Arm(faultinject.KernelMiscompute, 0)
		if err := VerifyKernelFamily(name); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("%s: miscompute probe = %v, want ErrIntegrity", name, err)
		}
		faultinject.Reset()

		f := familyByName(name)
		sound := f.dwKern
		rebind := func(k depthwiseKernel) {
			probeMu.Lock()
			f.dwKern, f.probe = k, nil // the probe binds a copy of the body: rebuild it
			probeMu.Unlock()
		}
		t.Cleanup(func() { rebind(sound); RestoreKernelFamily(name) })
		rebind(func(s conv.Shape, in, filter, dst []float32, h0, h1 int) {
			sound(s, in, filter, dst, h0, h1)
			if lo, hi := dwVectorColumns(s); lo < hi {
				for row := 0; row < h1-h0; row++ {
					dst[row*s.Q()+hi-1]++
				}
			}
		})
		if err := VerifyKernelFamily(name); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("%s: a body miscomputing its vector blocks probes %v, want ErrIntegrity", name, err)
		}
		QuarantineKernelFamily(name)
		s := conv.Shape{N: 1, C: 3, H: 20, W: 30, K: 3, R: 3, S: 3, Str: f.str, Pad: 1}
		in, filter := dwOperands(s, 41)
		p, err := TryNewDepthwisePlan(s, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		out := tensor.New(s.N, s.C, s.P(), s.Q())
		if err := p.TryExecute(in, filter, out); err != nil {
			t.Fatal(err)
		}
		RestoreKernelFamily(name)
		rebind(sound)
		if d := tensor.MaxAbsDiff(out, dwOracle(s, in, filter, nil)); d != 0 {
			t.Fatalf("%s quarantined: output differs from the oracle by %g", name, d)
		}
		if err := VerifyKernelFamily(name); err != nil {
			t.Fatalf("%s: probe after restoring the body: %v", name, err)
		}
	}
}

// TestDepthwisePlanConcurrent mirrors the standard shared-plan battery:
// one plan, many goroutines, distinct outputs — run under -race.
func TestDepthwisePlanConcurrent(t *testing.T) {
	s := conv.Shape{N: 1, C: 8, H: 20, W: 20, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	in, filter := dwOperands(s, 73)
	want := dwOracle(s, in, filter, nil)
	p, err := TryNewDepthwisePlan(s, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := p.TransformFilter(filter)
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
			out := tensor.New(s.N, s.C, s.P(), s.Q())
			for i := 0; i < iters; i++ {
				var err error
				if (g+i)%2 == 0 {
					err = p.TryExecute(in, filter, out)
				} else {
					err = p.TryExecutePacked(in, pf, out)
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

// TestDepthwisePackedZeroAllocs gates the steady-state contract: a
// warm plan executing packed with preallocated output must not touch
// the heap.
func TestDepthwisePackedZeroAllocs(t *testing.T) {
	s := conv.Shape{N: 1, C: 8, H: 28, W: 28, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	in, filter := dwOperands(s, 83)
	p, err := TryNewDepthwisePlan(s, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := p.TransformFilter(filter)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(s.N, s.C, s.P(), s.Q())
	for i := 0; i < 3; i++ { // warm the run pool
		if err := p.TryExecutePacked(in, pf, out); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := p.TryExecutePacked(in, pf, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("packed depthwise steady state allocates %v/op, want 0", allocs)
	}
}
