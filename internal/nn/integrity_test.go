package nn

import (
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/faultinject"
	"ndirect/internal/tensor"
)

// fillInts fills t with small integers, so every path that sums them
// (optimised, fused, reference) produces the same float32 bits.
func fillInts(t *tensor.Tensor, seed uint64) {
	x := seed*2654435761 + 12345
	for i := range t.Data {
		x = x*6364136223846793005 + 1442695040888963407
		t.Data[i] = float32(int64(x>>33)%7 - 3)
	}
}

// An armed weight-bitflip against a reuse engine's packed weights must
// be invisible in the outputs: the checksum catches it, the suspect
// artifact is discarded and the request served with the on-the-fly
// transform, and the next forward re-packs bit-identically — the full
// detect-and-recover chain of DESIGN.md §12.
func TestForwardRecoversFromWeightBitflip(t *testing.T) {
	defer faultinject.Reset()
	s := conv.Shape{N: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	w := s.NewFilter()
	fillInts(w, 21)
	net := &Network{Name: "sdc", Layers: []Layer{
		&ConvUnit{LayerName: "c1", Shape: s, Weights: w, ReLU: true},
	}}
	eng := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}
	x := tensor.New(1, 4, 8, 8)
	fillInts(x, 50)

	want, err := net.TryForward(eng, x) // warm: plans built, weights packed
	if err != nil {
		t.Fatal(err)
	}

	pre := core.IntegritySnapshot()
	faultinject.Arm(faultinject.WeightBitflip, 5)
	got, err := net.TryForward(eng, x)
	faultinject.Reset()
	if err != nil {
		t.Fatalf("forward under bitflip must recover, not fail: %v", err)
	}
	if d := tensor.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("bitflipped forward differs by %g, want bit-exact (corruption must never reach the output)", d)
	}
	post := core.IntegritySnapshot()
	if post.PackedVerifyFailures != pre.PackedVerifyFailures+1 {
		t.Fatalf("PackedVerifyFailures %d -> %d, want +1 (the flip must be caught, not missed)",
			pre.PackedVerifyFailures, post.PackedVerifyFailures)
	}

	// The discarded artifact was re-packed on the next fetch: a clean
	// forward is packed again and still bit-exact.
	got2, err := net.TryForward(eng, x)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(got2, want); d != 0 {
		t.Fatalf("post-recovery forward differs by %g", d)
	}
	if u := net.ConvUnits()[0]; u.packedRaw == nil {
		t.Fatal("clean forward after recovery must have re-packed the weights")
	}
}

// A scratch-canary trip inside a reuse engine's packed execution also
// surfaces as ErrIntegrity; the forward must recover bit-exactly on
// the unpacked retry (whose fresh run state has intact canaries).
func TestForwardRecoversFromScratchOverrun(t *testing.T) {
	defer faultinject.Reset()
	s := conv.Shape{N: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	w := s.NewFilter()
	fillInts(w, 31)
	net := &Network{Name: "sdc2", Layers: []Layer{
		&ConvUnit{LayerName: "c1", Shape: s, Weights: w, ReLU: true},
	}}
	eng := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}
	x := tensor.New(1, 4, 8, 8)
	fillInts(x, 60)

	want, err := net.TryForward(eng, x)
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.ScratchOverrun, 0)
	got, err := net.TryForward(eng, x)
	faultinject.Reset()
	if err != nil {
		t.Fatalf("forward under scratch overrun must recover, not fail: %v", err)
	}
	if d := tensor.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("overrun forward differs by %g, want bit-exact", d)
	}
}

// Quarantining a kernel family must reach plans a warm Reuse engine
// already holds — the ConvUnit plan memo, the plan cache behind it, the
// DepthwiseSeparable memo — on the very next forward, bit-identically,
// and restoring must hand the same plans their family body back: no
// re-planning and no plan-cache miss anywhere in the cycle. (The memos
// used to compare a dispatch generation that ConvUnit.planFor forgot,
// so a warm unit kept running the quarantined body.)
func TestQuarantineReachesWarmPlans(t *testing.T) {
	b := builderForTest()
	unit := b.convUnit("c3", 5, 13, 10, 3, 1, 1, true, true) // 3×3 stride 1, ragged C/K, BN+ReLU
	blk := b.dsc("blk", 8, 16, 16, 1)                        // dw 3×3 stride 1 → pw 1×1
	eng := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}
	ux := tensor.New(2, 5, 10, 10)
	ux.FillRandom(71)
	bx := tensor.New(2, 8, 16, 16)
	bx.FillRandom(72)

	// forward runs both units and reports the kernels their memoised
	// plans resolve to.
	type kernels struct{ conv, dw string }
	forward := func() (*tensor.Tensor, *tensor.Tensor, kernels) {
		t.Helper()
		uo, err := unit.tryForward(eng, ux)
		if err != nil {
			t.Fatal(err)
		}
		bo, err := blk.tryForward(eng, bx)
		if err != nil {
			t.Fatal(err)
		}
		um, bm := unit.planMemo.Load(), blk.sepMemo.Load()
		if um == nil || bm == nil {
			t.Fatal("forward did not memoise its plans")
		}
		dw, _ := bm.plan.KernelNames()
		return uo, bo, kernels{um.plan.KernelName(), dw}
	}

	wantU, wantB, got := forward() // warm
	if want := (kernels{"12x8.r3s3.s1", "dw.r3s3.s1"}); got != want {
		t.Fatalf("warm forward ran %+v, want %+v", got, want)
	}
	convPlan, sepPlan := unit.planMemo.Load().plan, blk.sepMemo.Load().plan
	misses := eng.plans().Stats().Misses

	check := func(stage string, want kernels) {
		t.Helper()
		uo, bo, got := forward()
		if got != want {
			t.Fatalf("%s: forward ran %+v, want %+v", stage, got, want)
		}
		if d := tensor.MaxAbsDiff(uo, wantU); d != 0 {
			t.Fatalf("%s: ConvUnit output differs by %g, want bit-identical", stage, d)
		}
		if d := tensor.MaxAbsDiff(bo, wantB); d != 0 {
			t.Fatalf("%s: DepthwiseSeparable output differs by %g, want bit-identical", stage, d)
		}
		if unit.planMemo.Load().plan != convPlan || blk.sepMemo.Load().plan != sepPlan {
			t.Fatalf("%s: a unit re-planned", stage)
		}
		if m := eng.plans().Stats().Misses; m != misses {
			t.Fatalf("%s: plan cache missed %d more times", stage, m-misses)
		}
	}

	for _, fam := range []string{"12x8.r3s3.s1", "dw.r3s3.s1"} {
		if !core.QuarantineKernelFamily(fam) {
			t.Fatalf("QuarantineKernelFamily(%s) = false", fam)
		}
		defer core.RestoreKernelFamily(fam)
	}
	check("quarantined", kernels{"12x8", "dw.generic"})
	core.RestoreKernelFamily("12x8.r3s3.s1")
	core.RestoreKernelFamily("dw.r3s3.s1")
	check("restored", kernels{"12x8.r3s3.s1", "dw.r3s3.s1"})
}
