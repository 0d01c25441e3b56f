package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
	"ndirect/internal/tensor"
)

// epilogueShapes is the fused-epilogue battery: the standard family's
// body on each filter class (3×3/s1, 1×1, strided, the 7×7 stem, a 5×5
// outside Table 4), and the ragged edges (K%Vk≠0, Q<Vw, partial channel
// tiles) where the store sweep's masked columns must still see the
// epilogue. TestFusedEpilogueQuarantined runs it once more on the looped
// kernel12x8 and the Go store.
var epilogueShapes = []conv.Shape{
	{N: 1, C: 8, H: 16, W: 16, K: 16, R: 3, S: 3, Str: 1, Pad: 1},  // S3 kernel
	{N: 2, C: 16, H: 14, W: 14, K: 32, R: 1, S: 1, Str: 1, Pad: 0}, // S1 pointwise
	{N: 1, C: 8, H: 16, W: 16, K: 8, R: 3, S: 3, Str: 2, Pad: 1},   // strided
	{N: 1, C: 5, H: 7, W: 7, K: 13, R: 3, S: 3, Str: 1, Pad: 1},    // ragged K, Q < Vw
	{N: 1, C: 3, H: 20, W: 20, K: 10, R: 7, S: 7, Str: 2, Pad: 3},  // stem
	{N: 1, C: 3, H: 13, W: 13, K: 10, R: 5, S: 5, Str: 1, Pad: 2},  // 5×5, outside Table 4
}

// testEpilogue builds a deterministic non-trivial epilogue for K
// output channels.
func testEpilogue(k int, bias, affine, relu bool) *EpilogueParams {
	ep := &EpilogueParams{ReLU: relu}
	if bias {
		ep.Bias = make([]float32, k)
		for i := range ep.Bias {
			ep.Bias[i] = 0.01 * float32(i%11-5)
		}
	}
	if affine {
		ep.Scale = make([]float32, k)
		ep.Shift = make([]float32, k)
		for i := range ep.Scale {
			ep.Scale[i] = 0.75 + 0.125*float32(i%5)
			ep.Shift[i] = -0.03 * float32(i%7-3)
		}
	}
	return ep
}

// applySeparate replays the epilogue over a raw convolution result in
// the documented order (bias, affine, ReLU) with the exact float32
// expressions of the separate sweeps — the oracle the fused store must
// match bit for bit. chanOf maps a flat output index to its channel.
func applySeparate(raw []float32, ep *EpilogueParams, chanOf func(i int) int) []float32 {
	out := make([]float32, len(raw))
	for i, v := range raw {
		k := chanOf(i)
		if ep.Bias != nil {
			v += ep.Bias[k]
		}
		if ep.Scale != nil {
			v = v*ep.Scale[k] + ep.Shift[k]
		}
		if ep.ReLU && v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// TestFusedEpilogueBitIdenticalNCHW: for every kernel path and ragged
// edge, conv-with-fused-epilogue must equal raw-conv followed by the
// separate sweeps, bit for bit, for each epilogue component alone and
// for the full Conv→bias→BN→ReLU chain.
func TestFusedEpilogueBitIdenticalNCHW(t *testing.T) {
	for _, s := range epilogueShapes {
		in := s.NewInput()
		in.FillRandom(int64(s.C + s.K))
		f := s.NewFilter()
		f.FillRandom(int64(s.R + s.S))
		raw := Conv2D(s, in, f, Options{})
		pq := s.P() * s.Q()
		chanOf := func(i int) int { return (i / pq) % s.K }
		for _, tc := range []struct {
			name               string
			bias, affine, relu bool
		}{
			{"bias", true, false, false},
			{"affine", false, true, false},
			{"relu", false, false, true},
			{"bias+relu", true, false, true},
			{"bias+affine+relu", true, true, true},
		} {
			ep := testEpilogue(s.K, tc.bias, tc.affine, tc.relu)
			got := Conv2D(s, in, f, Options{FusedEpilogue: ep})
			want := applySeparate(raw.Data, ep, chanOf)
			for i := range want {
				if got.Data[i] != want[i] {
					t.Fatalf("%v %s: fused differs from separate at %d: %g vs %g",
						s, tc.name, i, got.Data[i], want[i])
				}
			}
		}
	}
}

// TestFusedEpilogueBitIdenticalNHWC: the NHWC store sweep indexes
// channels innermost; the fused epilogue must pick the same per-channel
// parameters there too.
func TestFusedEpilogueBitIdenticalNHWC(t *testing.T) {
	for _, s := range epilogueShapes {
		in := s.NewInput()
		in.FillRandom(int64(2*s.C + s.K))
		f := s.NewFilter()
		f.FillRandom(int64(s.R + 2*s.S))
		inNHWC := tensor.NCHWToNHWC(in)
		raw := Conv2DNHWC(s, inNHWC, f, Options{})
		ep := testEpilogue(s.K, true, true, true)
		got := Conv2DNHWC(s, inNHWC, f, Options{FusedEpilogue: ep})
		want := applySeparate(raw.Data, ep, func(i int) int { return i % s.K })
		for i := range want {
			if got.Data[i] != want[i] {
				t.Fatalf("%v NHWC: fused differs from separate at %d: %g vs %g",
					s, i, got.Data[i], want[i])
			}
		}
	}
}

// TestFusedEpilogueQuarantined: the quarantine fallback — the looped
// kernel12x8 with the Go store — meets the fused epilogue and the ragged
// K and Q edges at plan level too, on every entry path of the battery.
func TestFusedEpilogueQuarantined(t *testing.T) {
	QuarantineKernelFamily(standardFamily.name)
	defer RestoreKernelFamily(standardFamily.name)
	t.Run("NCHW", TestFusedEpilogueBitIdenticalNCHW)
	t.Run("NHWC", TestFusedEpilogueBitIdenticalNHWC)
	t.Run("packed", TestFusedEpiloguePackedPath)
}

// TestFusedEpiloguePackedPath: the steady-state serving path
// (pre-transformed weights, TryExecutePacked) must store the same
// fused results as the on-the-fly transform path.
func TestFusedEpiloguePackedPath(t *testing.T) {
	for _, s := range epilogueShapes {
		in := s.NewInput()
		in.FillRandom(int64(s.C*3 + s.K))
		f := s.NewFilter()
		f.FillRandom(int64(s.R*5 + s.S))
		ep := testEpilogue(s.K, true, true, true)
		plan, err := TryNewPlan(s, Options{FusedEpilogue: ep})
		if err != nil {
			t.Fatal(err)
		}
		want := s.NewOutput()
		if err := plan.TryExecute(in, f, want); err != nil {
			t.Fatal(err)
		}
		pf, err := plan.TransformFilter(f)
		if err != nil {
			t.Fatal(err)
		}
		got := s.NewOutput()
		if err := plan.TryExecutePacked(in, pf, got); err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Fatalf("%v: packed fused path differs from on-the-fly by %g", s, d)
		}
	}
}

// TestFusedEpilogueDegradationLadder: every rung below the optimised
// grid — the fault-recovery replay and the reference engine's
// TryExecuteReferenceCtx — must replay the plan's fused epilogue, so a
// degraded serving call returns exactly what a healthy fused call would
// have: the healthy call's bits, on non-integer operands.
func TestFusedEpilogueDegradationLadder(t *testing.T) {
	defer faultinject.Reset()
	s := conv.Shape{N: 1, C: 5, H: 9, W: 9, K: 13, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(21)
	f := s.NewFilter()
	f.FillRandom(22)
	ep := testEpilogue(s.K, true, true, true)
	plan, err := TryNewPlan(s, Options{FusedEpilogue: ep})
	if err != nil {
		t.Fatal(err)
	}
	want := s.NewOutput()
	if err := plan.TryExecute(in, f, want); err != nil {
		t.Fatal(err)
	}

	// Bottom rung: the plan run serially on its oracle.
	out := s.NewOutput()
	if err := plan.TryExecuteReferenceCtx(context.Background(), in, f, out); err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if out.Data[i] != want.Data[i] {
			t.Fatalf("TryExecuteReferenceCtx: epilogue not replayed at %d: %g vs %g",
				i, out.Data[i], want.Data[i])
		}
	}

	// Fault rung: a poisoned packed weight forces the oracle replay,
	// which must also land on the fused result.
	pf, err := plan.TransformFilter(f)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.PackedCorrupt, len(pf.data)/2)
	out2 := s.NewOutput()
	if err := plan.TryExecutePacked(in, pf, out2); err != nil {
		t.Fatalf("TryExecutePacked under PackedCorrupt = %v, want recovered nil", err)
	}
	faultinject.Reset()
	for i := range want.Data {
		if out2.Data[i] != want.Data[i] {
			t.Fatalf("fault fallback: epilogue not replayed at %d: %g vs %g",
				i, out2.Data[i], want.Data[i])
		}
	}
}

// TestFusedEpilogueValidation: the option-surface errors — half-set
// affine pairs and length mismatches — must all reject with
// ErrBadOptions at plan build.
func TestFusedEpilogueValidation(t *testing.T) {
	s := conv.Shape{N: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	bad := []Options{
		{FusedEpilogue: &EpilogueParams{Bias: make([]float32, s.K-1)}},
		{FusedEpilogue: &EpilogueParams{Bias: make([]float32, s.K+1), ReLU: true}},
		{FusedEpilogue: &EpilogueParams{Shift: make([]float32, s.K)}},                                // Scale missing
		{FusedEpilogue: &EpilogueParams{Scale: make([]float32, s.K)}},                                // Shift missing
		{FusedEpilogue: &EpilogueParams{Scale: make([]float32, s.K), Shift: make([]float32, s.K+1)}}, // length mismatch
	}
	for i, opt := range bad {
		if _, err := TryNewPlan(s, opt); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("case %d: TryNewPlan = %v, want ErrBadOptions", i, err)
		}
	}
	// A nil-component epilogue is legal and equivalent to none.
	plan, err := TryNewPlan(s, Options{FusedEpilogue: &EpilogueParams{}})
	if err != nil {
		t.Fatalf("empty EpilogueParams rejected: %v", err)
	}
	if !plan.ep.none {
		t.Fatal("empty EpilogueParams did not normalise to the raw-store fast path")
	}
}

// TestSteadyStateZeroAllocs is the PR's allocation acceptance claim:
// after warm-up, the single-threaded packed execution path (cached
// plan, pre-transformed weights, caller-owned output, per-plan scratch
// pool) performs zero heap allocations per call — with and without the
// fused epilogue, packing a 3×3 plan's tiles and reading a 1×1 plan's
// in place.
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, s := range []conv.Shape{
		{N: 1, C: 8, H: 14, W: 14, K: 16, R: 3, S: 3, Str: 1, Pad: 1},
		{N: 1, C: 8, H: 14, W: 14, K: 24, R: 1, S: 1, Str: 1, Pad: 0},
	} {
		steadyStateZeroAllocs(t, s)
	}
}

func steadyStateZeroAllocs(t *testing.T, s conv.Shape) {
	in := s.NewInput()
	in.FillRandom(31)
	f := s.NewFilter()
	f.FillRandom(32)
	for _, fused := range []bool{false, true} {
		opt := Options{Threads: 1}
		if fused {
			opt.FusedEpilogue = testEpilogue(s.K, true, true, true)
		}
		plan, err := TryNewPlan(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := plan.TransformFilter(f)
		if err != nil {
			t.Fatal(err)
		}
		out := s.NewOutput()
		if err := plan.TryExecutePacked(in, pf, out); err != nil { // warm the scratch pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := plan.TryExecutePacked(in, pf, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v fused=%v: steady-state packed path allocates %.1f objects per call, want 0", s, fused, allocs)
		}
	}
}

// TestConcurrentFusedPlansSharedPool: distinct fused plans dispatch
// their grids onto the one process-wide worker pool concurrently; no
// plan's epilogue parameters may bleed into another's stores (-race
// target for the pool's dispatch path).
func TestConcurrentFusedPlansSharedPool(t *testing.T) {
	var wg sync.WaitGroup
	for pi, s := range epilogueShapes {
		in := s.NewInput()
		in.FillRandom(int64(100 + pi))
		f := s.NewFilter()
		f.FillRandom(int64(200 + pi))
		ep := testEpilogue(s.K, true, true, pi%2 == 0)
		plan, err := TryNewPlan(s, Options{Threads: 2, FusedEpilogue: ep})
		if err != nil {
			t.Fatal(err)
		}
		want := s.NewOutput()
		if err := plan.TryExecute(in, f, want); err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := s.NewOutput()
				if err := plan.TryExecute(in, f, out); err != nil {
					t.Error(err)
					return
				}
				if d := tensor.MaxAbsDiff(want, out); d != 0 {
					t.Errorf("%v: concurrent fused run differs by %g", s, d)
				}
			}()
		}
	}
	wg.Wait()
}
