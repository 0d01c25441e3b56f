package nn

import (
	"sync/atomic"
	"testing"

	"ndirect/internal/core"
	"ndirect/internal/tensor"
)

// fcNet is a conv unit and a pooled FC head: the smallest network with
// reuse state on both a convolution layer and a fully connected one.
func fcNet(in, out int, relu bool) (*Network, *FC) {
	b := builderForTest()
	fc := b.fc("fc", in, out, relu)
	for i := range fc.B {
		fc.B[i] = float32(i%5) - 2
	}
	return &Network{Name: "fcnet", Layers: []Layer{
		b.convUnit("c1", 3, in, 8, 3, 1, 1, true, true),
		GlobalAvgPool{},
		fc,
	}}, fc
}

// fcNaive is the layer's definition in float64: out[n][o] = relu(b[o] +
// Σ_i x[n][i]·W[o][i]).
func fcNaive(fc *FC, x *tensor.Tensor) *tensor.Tensor {
	n := x.Dims[0]
	out := tensor.New(n, fc.Out)
	for b := 0; b < n; b++ {
		for o := 0; o < fc.Out; o++ {
			sum := float64(fc.B[o])
			for i := 0; i < fc.In; i++ {
				sum += float64(x.Data[b*fc.In+i]) * float64(fc.W.Data[o*fc.In+i])
			}
			if fc.ReLU && sum < 0 {
				sum = 0
			}
			out.Data[b*fc.Out+o] = float32(sum)
		}
	}
	return out
}

// An FC layer is the 1×1 convolution it is on every engine: any batch,
// a flattened [N, C, H, W] input too. The seed nDirect engine and the
// Reuse one run the same kernels under the same numeric contract, so
// they store the same bits; the reference engine (the float64 reference
// path) and the im2col engine agree with the definition to rounding.
func TestFCRunsAsConvolutionOnEveryEngine(t *testing.T) {
	for _, c := range []struct {
		in, out int
		relu    bool
		dims    []int // input dims after the batch
	}{
		{in: 300, out: 37, relu: true, dims: []int{300, 1, 1}},
		{in: 60, out: 8, relu: false, dims: []int{4, 5, 3}},
	} {
		for _, n := range []int{1, 3} {
			_, fc := fcNet(c.in, c.out, c.relu)
			x := tensor.New(append([]int{n}, c.dims...)...)
			x.FillRandom(int64(c.in))
			want := fcNaive(fc, x)
			seed := fc.Forward(&Engine{Algo: AlgoNDirect, Threads: 2}, x)
			if fc.conv == nil {
				t.Fatal("the seed engine did not run the layer as a convolution")
			}
			for name, eng := range map[string]*Engine{
				"seed":      {Algo: AlgoNDirect, Threads: 2},
				"reuse":     {Algo: AlgoNDirect, Threads: 2, Reuse: true},
				"reference": {Algo: AlgoNDirect, Threads: 1, Reuse: true, ForceReference: true},
				"im2col":    {Algo: AlgoIm2col, Threads: 2},
			} {
				got, err := fc.tryForward(eng, x)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Dims) != 2 || got.Dims[0] != n || got.Dims[1] != c.out {
					t.Fatalf("%s: output dims %v, want [%d %d]", name, got.Dims, n, c.out)
				}
				if d := tensor.RelDiff(want, got); d > 1e-5 {
					t.Fatalf("%s: in=%d N=%d: differs from the definition by %g", name, c.in, n, d)
				}
				if name == "reuse" {
					requireSameBits(t, "Reuse engine vs seed engine", got, seed)
				}
			}
		}
	}
	bad := tensor.New(2, 7)
	_, fc := fcNet(8, 4, false)
	if _, err := fc.tryForward(&Engine{Algo: AlgoNDirect, Threads: 1, Reuse: true}, bad); err == nil {
		t.Fatal("an input that does not flatten to In must be an error")
	}
}

// The FC's plan and packed weights are reuse state like a conv unit's:
// the first forward makes them resident through the weight-residency
// hooks and InvalidateReuse retires them, while ConvUnits keeps listing
// convolution layers only (its callers map every unit to a conv layer
// of the model).
func TestFCReuseStateReachedByWalks(t *testing.T) {
	net, fc := fcNet(16, 10, false)
	if units := net.ConvUnits(); len(units) != 1 || units[0].LayerName != "c1" {
		t.Fatalf("ConvUnits lists %d units, want the one convolution layer", len(units))
	}
	cache := core.NewPlanCache(0)
	eng := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true, Plans: cache}
	var retained, dropped, bytes atomic.Int64
	eng.OnPackAdmit = func(b int64) bool { bytes.Add(b); return true }
	eng.OnPackRetain = func(*core.PackedFilter) { retained.Add(1) }
	eng.OnPackDrop = func(pf *core.PackedFilter) { dropped.Add(1); pf.Release() }

	x := tensor.New(1, 3, 8, 8)
	x.FillRandom(3)
	want, err := net.TryForward(eng, x)
	if err != nil {
		t.Fatal(err)
	}
	if retained.Load() != 2 {
		t.Fatalf("the first forward retained %d packs, want the conv unit's and the FC's", retained.Load())
	}
	fcPack := 4 * int64((fc.Out+7)/8*8*fc.In)
	if got := bytes.Load(); got < fcPack {
		t.Fatalf("residency admitted %d bytes, less than the packed FC's %d", got, fcPack)
	}
	pre := cache.Stats().Misses
	again, err := net.TryForward(eng, x)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "warm forward", again, want)
	if cache.Stats().Misses != pre || retained.Load() != 2 {
		t.Fatalf("a warm network planned or packed again: misses %d -> %d, packs %d", pre, cache.Stats().Misses, retained.Load())
	}

	net.InvalidateReuse(eng)
	if dropped.Load() != 2 {
		t.Fatalf("InvalidateReuse dropped %d packs, want 2 (the FC's too)", dropped.Load())
	}
	got, err := net.TryForward(eng, x)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "post-invalidation forward", got, want)
	if retained.Load() != 4 {
		t.Fatalf("the rebuild retained %d packs, want 2 more", retained.Load()-2)
	}
}
