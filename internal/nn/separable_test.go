package nn

import (
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

// The fused separable serving path is a pure execution-strategy
// change: every test here pins bit-identity against the unfused
// composition (depthwise plane loop + sweeps + pointwise unit).

func sepBlockForTest(c, k, hw, str int) *DepthwiseSeparable {
	b := builderForTest()
	return b.dsc("blk", c, k, hw, str)
}

func TestSeparableFusedMatchesUnfused(t *testing.T) {
	cases := []struct{ c, k, hw, str int }{
		{8, 16, 16, 1},
		{8, 16, 17, 2}, // ragged stride-2
		{5, 7, 11, 1},  // odd channels, ragged K
	}
	for _, tc := range cases {
		blk := sepBlockForTest(tc.c, tc.k, tc.hw, tc.str)
		plain := &Engine{Algo: AlgoNDirect, Threads: 2}
		fused := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}
		for _, batch := range []int{1, 3} {
			x := tensor.New(batch, tc.c, tc.hw, tc.hw)
			x.FillRandom(int64(7 + batch))
			want, err := blk.tryForward(plain, x)
			if err != nil {
				t.Fatalf("unfused: %v", err)
			}
			got, err := blk.tryForward(fused, x)
			if err != nil {
				t.Fatalf("fused: %v", err)
			}
			if d := tensor.MaxAbsDiff(got, want); d != 0 {
				t.Fatalf("c%dk%dhw%ds%d batch %d: fused differs by %g", tc.c, tc.k, tc.hw, tc.str, batch, d)
			}
			// Second call exercises the warm memo + packed artifacts.
			got2, err := blk.tryForward(fused, x)
			if err != nil {
				t.Fatalf("fused warm: %v", err)
			}
			if d := tensor.MaxAbsDiff(got2, want); d != 0 {
				t.Fatalf("warm fused differs by %g", d)
			}
		}
	}
}

func TestSeparableForceReferenceMatchesFused(t *testing.T) {
	blk := sepBlockForTest(6, 12, 14, 1)
	fused := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}
	ref := &Engine{Algo: AlgoNDirect, Threads: 1, Reuse: true, ForceReference: true}
	x := tensor.New(1, 6, 14, 14)
	// Integer-valued tensors and exact-identity BN (ε=0) keep the
	// reference rung (float64 accumulation) bit-identical to the fused
	// f32 chain.
	fillInts := func(dst *tensor.Tensor, seed int64) {
		r := newIntFiller(seed)
		for i := range dst.Data {
			dst.Data[i] = r()
		}
	}
	fillInts(x, 41)
	fillInts(blk.DWFilter, 43)
	fillInts(blk.PW.Weights, 47)
	blk.DWBN.Eps = 0
	blk.PW.BN.Eps = 0
	want, err := blk.tryForward(fused, x)
	if err != nil {
		t.Fatalf("fused: %v", err)
	}
	got, err := blk.tryForward(ref, x)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if d := tensor.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("quarantine rung differs from fused by %g", d)
	}
}

func TestDepthwiseConvPlannedMatchesPlaneLoop(t *testing.T) {
	b := builderForTest()
	mk := func(withBN, relu bool) *DepthwiseConv {
		f := tensor.New(6, 3, 3)
		heInit(f, 9, b.rng)
		d := &DepthwiseConv{
			LayerName: "dw",
			Shape:     conv.Shape{N: 1, C: 6, H: 13, W: 13, K: 6, R: 3, S: 3, Str: 1, Pad: 1},
			Filter:    f,
			ReLU:      relu,
		}
		if withBN {
			d.BN = identityBN(6)
			// Perturb so BN is not a no-op.
			for i := range d.BN.Gamma {
				d.BN.Gamma[i] = 1 + 0.25*float32(i)
				d.BN.Beta[i] = -0.125 * float32(i)
			}
		}
		return d
	}
	for _, cfg := range []struct{ bn, relu bool }{{true, true}, {true, false}, {false, true}, {false, false}} {
		d := mk(cfg.bn, cfg.relu)
		plain := &Engine{Algo: AlgoNDirect, Threads: 2}
		planned := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}
		for _, batch := range []int{1, 2} {
			x := tensor.New(batch, 6, 13, 13)
			x.FillRandom(int64(11 + batch))
			want, err := d.tryForward(plain, x)
			if err != nil {
				t.Fatalf("plane loop: %v", err)
			}
			got, err := d.tryForward(planned, x)
			if err != nil {
				t.Fatalf("planned: %v", err)
			}
			if d := tensor.MaxAbsDiff(got, want); d != 0 {
				t.Fatalf("bn=%v relu=%v batch %d: planned differs by %g", cfg.bn, cfg.relu, batch, d)
			}
		}
	}
}

func TestFuseSeparableRewrite(t *testing.T) {
	b := builderForTest()
	mkNet := func() *Network {
		f := tensor.New(8, 3, 3)
		heInit(f, 9, b.rng)
		dwc := &DepthwiseConv{
			LayerName: "dw1",
			Shape:     conv.Shape{N: 1, C: 8, H: 12, W: 12, K: 8, R: 3, S: 3, Str: 1, Pad: 1},
			Filter:    f,
			BN:        identityBN(8),
			ReLU:      true,
		}
		pw := b.convUnit("pw1", 8, 16, 12, 1, 1, 0, true, true)
		return &Network{Name: "t", Layers: []Layer{dwc, pw, GlobalAvgPool{}}}
	}
	net := mkNet()
	eng := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}
	x := tensor.New(1, 8, 12, 12)
	x.FillRandom(3)
	want, err := net.TryForward(eng, x)
	if err != nil {
		t.Fatalf("pre-fusion forward: %v", err)
	}
	if got := net.FuseSeparable(); got != 1 {
		t.Fatalf("FuseSeparable = %d, want 1", got)
	}
	if len(net.Layers) != 2 {
		t.Fatalf("fused network has %d layers, want 2", len(net.Layers))
	}
	ds, ok := net.Layers[0].(*DepthwiseSeparable)
	if !ok {
		t.Fatalf("layer 0 is %T, want *DepthwiseSeparable", net.Layers[0])
	}
	if ds.PW.LayerName != "pw1" {
		t.Fatalf("fused block kept wrong pointwise unit %q", ds.PW.LayerName)
	}
	got, err := net.TryForward(eng, x)
	if err != nil {
		t.Fatalf("post-fusion forward: %v", err)
	}
	if d := tensor.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("fusion changed the bits by %g", d)
	}

	// A non-composing pair (3×3 second conv) must not be rewritten.
	f2 := tensor.New(8, 3, 3)
	heInit(f2, 9, b.rng)
	dwc2 := &DepthwiseConv{
		LayerName: "dw2",
		Shape:     conv.Shape{N: 1, C: 8, H: 12, W: 12, K: 8, R: 3, S: 3, Str: 1, Pad: 1},
		Filter:    f2,
		BN:        identityBN(8),
		ReLU:      true,
	}
	conv3 := b.convUnit("c3", 8, 16, 12, 3, 1, 1, true, true)
	n2 := &Network{Name: "t2", Layers: []Layer{dwc2, conv3}}
	if got := n2.FuseSeparable(); got != 0 {
		t.Fatalf("non-composing pair fused (%d)", got)
	}
}

func TestInvalidateReuseRetiresSeparableState(t *testing.T) {
	blk := sepBlockForTest(8, 16, 16, 1)
	net := &Network{Name: "m", Layers: []Layer{blk}}
	eng := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}
	x := tensor.New(1, 8, 16, 16)
	x.FillRandom(29)
	want, err := blk.tryForward(eng, x)
	if err != nil {
		t.Fatal(err)
	}
	blk.sepMu.Lock()
	packed := blk.sepPackedDW
	blk.sepMu.Unlock()
	if packed == nil {
		t.Fatal("fused forward did not retain the packed depthwise filter")
	}
	net.InvalidateReuse(eng)
	if !packed.Released() {
		t.Fatal("invalidate did not release the packed depthwise filter")
	}
	blk.sepMu.Lock()
	cleared := blk.sepPackedDW == nil
	blk.sepMu.Unlock()
	if !cleared {
		t.Fatal("invalidate did not clear the packed slot")
	}
	got, err := blk.tryForward(eng, x)
	if err != nil {
		t.Fatalf("post-invalidate forward: %v", err)
	}
	if d := tensor.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("rebuilt state differs by %g", d)
	}
}
