package nn

import (
	"bytes"
	"strings"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/tensor"
)

func tinyNet() *Network {
	b := builderForTest()
	return &Network{Name: "tiny", Layers: []Layer{
		b.convUnit("c1", 3, 8, 12, 3, 1, 1, true, true),
		b.dsc("d1", 8, 16, 12, 1),
		GlobalAvgPool{},
		b.fc("fc", 16, 4, false),
		Softmax{},
	}}
}

func TestWeightsRoundTrip(t *testing.T) {
	src := tinyNet()
	// Make the source distinctive.
	for _, s := range src.paramSlices() {
		for i := range s {
			s[i] += 0.001 * float32(i%7)
		}
	}
	var buf bytes.Buffer
	if err := src.WriteWeights(&buf); err != nil {
		t.Fatal(err)
	}

	dst := tinyNet() // same architecture, different weights
	if err := dst.ReadWeights(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Outputs must now be identical.
	eng := &Engine{Algo: AlgoNDirect, Threads: 1}
	x := tensor.New(1, 3, 12, 12)
	x.FillRandom(9)
	a := src.Forward(eng, x)
	b := dst.Forward(eng, x)
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Fatal("weights round trip changed outputs")
	}
}

func TestReadWeightsInvalidatesFoldedCache(t *testing.T) {
	net := tinyNet()
	eng := &Engine{Algo: AlgoNDirect, Threads: 1, Fuse: true}
	x := tensor.New(1, 3, 12, 12)
	x.FillRandom(9)
	before := net.Forward(eng, x) // populates folded-weight caches

	// Re-load different weights; fused outputs must change.
	other := tinyNet()
	for _, s := range other.paramSlices() {
		for i := range s {
			s[i] *= 1.5
		}
	}
	var buf bytes.Buffer
	if err := other.WriteWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := net.ReadWeights(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	after := net.Forward(eng, x)
	if tensor.MaxAbsDiff(before, after) == 0 {
		t.Fatal("fused caches not invalidated on weight load")
	}
}

func TestReadWeightsRejectsBadMagic(t *testing.T) {
	net := tinyNet()
	err := net.ReadWeights(strings.NewReader("WRONGHEADER........."))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("expected magic error, got %v", err)
	}
}

func TestReadWeightsRejectsWrongArchitecture(t *testing.T) {
	src := tinyNet()
	var buf bytes.Buffer
	if err := src.WriteWeights(&buf); err != nil {
		t.Fatal(err)
	}
	b := builderForTest()
	other := &Network{Name: "different", Layers: []Layer{
		b.convUnit("c1", 3, 4, 12, 3, 1, 1, true, true),
	}}
	if err := other.ReadWeights(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("expected architecture mismatch error")
	}
}

func TestReadWeightsTruncatedFileLeavesNetworkIntact(t *testing.T) {
	src := tinyNet()
	var buf bytes.Buffer
	if err := src.WriteWeights(&buf); err != nil {
		t.Fatal(err)
	}
	dst := tinyNet()
	beforeSum := paramSum(dst)
	trunc := buf.Bytes()[:buf.Len()/2]
	if err := dst.ReadWeights(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected error on truncated file")
	}
	if paramSum(dst) != beforeSum {
		t.Fatal("truncated load must not mutate the network")
	}
}

func paramSum(n *Network) float64 {
	var sum float64
	for _, s := range n.paramSlices() {
		for _, v := range s {
			sum += float64(v)
		}
	}
	return sum
}

// perturbedWeights writes net's parameters scaled and shifted off their
// built values (BN variances stay positive), so reading them changes
// every cache built from the old ones.
func perturbedWeights(t *testing.T, net *Network) []byte {
	t.Helper()
	for _, s := range net.paramSlices() {
		for i := range s {
			s[i] = s[i]*1.25 + 0.01*float32(i%5)
		}
	}
	var buf bytes.Buffer
	if err := net.WriteWeights(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadWeightsRetiresReuseState: after ReadWeights a warm Reuse
// engine serves the loaded parameters, not the fused epilogues, packs
// and memos built from the old ones — == a fresh engine on the same
// weights — and every pack it held is dropped through its OnPackDrop
// hook, so a residency charge comes back.
func TestReadWeightsRetiresReuseState(t *testing.T) {
	b := builderForTest()
	for _, tc := range []struct {
		name string
		mk   func() *Network
		x    []int
	}{
		{"conv+bn", func() *Network {
			return &Network{Name: "c", Layers: []Layer{b.convUnit("c1", 3, 8, 12, 3, 1, 1, true, true)}}
		}, []int{1, 3, 12, 12}},
		{"residual tail", func() *Network {
			return &Network{Name: "r", Layers: []Layer{&BasicBlock{LayerName: "bb",
				Conv1: b.convUnit("bb1", 8, 8, 10, 3, 1, 1, true, true),
				Conv2: b.convUnit("bb2", 8, 8, 10, 3, 1, 1, false, true)}}}
		}, []int{1, 8, 10, 10}},
		{"separable", func() *Network {
			return &Network{Name: "s", Layers: []Layer{b.dsc("d1", 8, 16, 12, 1)}}
		}, []int{1, 8, 12, 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := tensor.New(tc.x...)
			x.FillRandom(5)
			net := tc.mk()
			eng := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}
			held := map[*core.PackedFilter]bool{}
			eng.OnPackRetain = func(pf *core.PackedFilter) { held[pf] = true }
			eng.OnPackDrop = func(pf *core.PackedFilter) { delete(held, pf) }
			if _, err := net.TryForward(eng, x); err != nil {
				t.Fatal(err)
			}
			warm := make([]*core.PackedFilter, 0, len(held))
			for pf := range held {
				warm = append(warm, pf)
			}
			if len(warm) == 0 {
				t.Fatal("the warm forward retained no packed filter")
			}
			weights := perturbedWeights(t, tc.mk())
			if err := net.ReadWeights(bytes.NewReader(weights)); err != nil {
				t.Fatal(err)
			}
			got, err := net.TryForward(eng, x)
			if err != nil {
				t.Fatal(err)
			}
			fresh := tc.mk()
			if err := fresh.ReadWeights(bytes.NewReader(weights)); err != nil {
				t.Fatal(err)
			}
			want, err := fresh.TryForward(&Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}, x)
			if err != nil {
				t.Fatal(err)
			}
			if d := tensor.MaxAbsDiff(got, want); d != 0 {
				t.Fatalf("warm engine after ReadWeights differs from a fresh one by %g", d)
			}
			for _, pf := range warm {
				if held[pf] {
					t.Fatalf("packed filter %p of the old weights was never dropped through OnPackDrop", pf)
				}
			}
		})
	}
}

// TestDepthwiseConvWeightsRoundTrip: a standalone DepthwiseConv's filter
// and BN are parameters like any other layer's — written, read back —
// and InvalidateReuse retires its plan memo and packed filter.
func TestDepthwiseConvWeightsRoundTrip(t *testing.T) {
	b := builderForTest()
	mk := func() (*Network, *DepthwiseConv) {
		f := tensor.New(6, 3, 3)
		heInit(f, 9, b.rng)
		d := &DepthwiseConv{LayerName: "dw", Filter: f, BN: identityBN(6), ReLU: true,
			Shape: conv.Shape{N: 1, C: 6, H: 11, W: 11, K: 6, R: 3, S: 3, Str: 1, Pad: 1}}
		return &Network{Name: "dw", Layers: []Layer{d}}, d
	}
	x := tensor.New(1, 6, 11, 11)
	x.FillRandom(7)
	src, _ := mk()
	weights := perturbedWeights(t, src)
	dst, d := mk()
	if err := dst.ReadWeights(bytes.NewReader(weights)); err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}
	want, err := src.TryForward(eng, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.TryForward(eng, x)
	if err != nil {
		t.Fatal(err)
	}
	if diff := tensor.MaxAbsDiff(got, want); diff != 0 {
		t.Fatalf("read-back depthwise unit differs by %g", diff)
	}

	d.packMu.Lock()
	packed := d.packed
	d.packMu.Unlock()
	if packed == nil || d.planMemo.Load() == nil {
		t.Fatal("the Reuse forward built no packed filter or plan memo")
	}
	dst.InvalidateReuse(eng)
	if !packed.Released() || d.packed != nil || d.planMemo.Load() != nil {
		t.Fatal("InvalidateReuse left the depthwise unit's pack or memo in place")
	}
	if got, err = dst.TryForward(eng, x); err != nil || tensor.MaxAbsDiff(got, want) != 0 {
		t.Fatalf("post-invalidate forward: err %v", err)
	}
}
