package nn

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/faultinject"
	"ndirect/internal/parallel"
	"ndirect/internal/tensor"
)

// residualBlocks is one of each residual block — bottleneck and basic,
// projection and identity shortcut — on 12×12 inputs with channel counts
// that leave ragged K-blocks and ragged tiles. exact fills every
// parameter with small integers (BN exact: γ=σ²=1, ε=0), so the float64
// reference path and the float32 kernels compute the same bits.
func residualBlocks(exact bool) []Layer {
	b := builderForTest()
	unit := func(name string, c, k, rs, pad int, relu bool) *ConvUnit {
		u := b.convUnit(name, c, k, 12, rs, 1, pad, relu, true)
		for i := range u.BN.Beta {
			u.BN.Beta[i], u.BN.Mean[i] = float32(i%3)-1, float32(i%2)
		}
		if exact {
			fillInts(u.Weights, uint64(len(name))+uint64(c*k))
			u.BN.Eps = 0
		}
		return u
	}
	proj := &Bottleneck{LayerName: "bottleneck_proj",
		Conv1: unit("bp_a", 6, 5, 1, 0, true), Conv2: unit("bp_b", 5, 5, 3, 1, true),
		Conv3: unit("bp_c", 5, 20, 1, 0, false), Downsample: unit("bp_p", 6, 20, 1, 0, false)}
	ident := &Bottleneck{LayerName: "bottleneck_id",
		Conv1: unit("bi_a", 20, 5, 1, 0, true), Conv2: unit("bi_b", 5, 5, 3, 1, true),
		Conv3: unit("bi_c", 5, 20, 1, 0, false)}
	basicProj := &BasicBlock{LayerName: "basic_proj",
		Conv1: unit("sp_a", 20, 9, 3, 1, true), Conv2: unit("sp_b", 9, 9, 3, 1, false),
		Downsample: unit("sp_p", 20, 9, 1, 0, false)}
	basicIdent := &BasicBlock{LayerName: "basic_id",
		Conv1: unit("si_a", 9, 9, 3, 1, true), Conv2: unit("si_b", 9, 9, 3, 1, false)}
	return []Layer{proj, ident, basicProj, basicIdent}
}

func blockInputC(n, c int, exact bool) *tensor.Tensor {
	x := tensor.New(n, c, 12, 12)
	x.FillRandom(31)
	if exact {
		fillInts(x, 31)
	}
	return x
}

// exactBlockNets is each residual block as its own network with integer
// parameters and an integer input of its channel count: three
// convolutions deep, every partial sum stays an exactly representable
// integer, so the float64 reference path and the float32 kernels agree
// bit for bit.
func exactBlockNets(n int) (nets []*Network, inputs []*tensor.Tensor) {
	for _, block := range residualBlocks(true) {
		c := 0
		switch v := block.(type) {
		case *Bottleneck:
			c = v.Conv1.Shape.C
		case *BasicBlock:
			c = v.Conv1.Shape.C
		}
		nets = append(nets, &Network{Name: block.Name(), Layers: []Layer{block}})
		inputs = append(inputs, blockInputC(n, c, true))
	}
	return nets, inputs
}

func requireSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %v elements, want %v", what, got.Dims, want.Dims)
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %g, want %g (bit-identical)", what, i, got.Data[i], want.Data[i])
		}
	}
}

// A residual block's tail in the store is the sweep form's bits: every
// block kind, N=1 and N=3, against the seed engine (unfused convolution,
// then the BN sweep, then addReLU), cold and on pooled buffers, and on
// the Go store of a quarantined family.
func TestResidualTailFusedMatchesSweeps(t *testing.T) {
	for _, n := range []int{1, 3} {
		net := &Network{Name: "blocks", Layers: residualBlocks(false)}
		x := blockInputC(n, 6, false)
		want, err := net.TryForward(&Engine{Algo: AlgoNDirect, Threads: 2}, x)
		if err != nil {
			t.Fatal(err)
		}
		eng := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}
		for iter := 0; iter < 3; iter++ {
			got, err := net.TryForward(eng, x)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, fmt.Sprintf("N=%d forward %d", n, iter), got, want)
		}
		core.QuarantineKernelFamily("12x8.vec")
		defer core.RestoreKernelFamily("12x8.vec")
		got, err := net.TryForward(eng, x)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, fmt.Sprintf("N=%d quarantined", n), got, want)
		core.RestoreKernelFamily("12x8.vec")
	}
}

// The fused tail survives the convolution's own recovery with the
// residual step replayed: a faulted grid recomputed on the reference
// path (core's applyFallback) returns the sweep form's bits. Integer
// parameters make the float64 reference exact.
func TestResidualTailFusedThroughFallbacks(t *testing.T) {
	defer faultinject.Reset()
	quiet := core.Logf
	core.Logf = func(string, ...any) {}
	defer func() { core.Logf = quiet }()

	nets, inputs := exactBlockNets(2)
	for i, net := range nets {
		x := inputs[i]
		want, err := net.TryForward(&Engine{Algo: AlgoNDirect, Threads: 2}, x)
		if err != nil {
			t.Fatal(err)
		}

		eng := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}
		faultinject.ArmN(faultinject.WorkerPanic, 0, -1) // every grid faults and recomputes on the reference path
		got, err := net.TryForward(eng, x)
		faultinject.Reset()
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, net.Name+": reference fallback", got, want)
	}
}

// Regression: the unfused tail used to drop applyReLU's error (and its
// add could only panic), so a worker fault in the tail returned a nil
// error over a tensor with the ReLU half applied. It is one checked pass
// now: the fault surfaces from TryForward typed.
func TestResidualTailFaultSurfacesTyped(t *testing.T) {
	defer faultinject.Reset()
	quiet := core.Logf
	core.Logf = func(string, ...any) {}
	defer func() { core.Logf = quiet }()

	for _, block := range residualBlocks(false)[:3:3] {
		net := &Network{Name: "tail", Layers: []Layer{block}}
		x := blockInputC(1, 6, false)
		if block.Name() != "bottleneck_proj" {
			x = tensor.New(1, 20, 12, 12)
			x.FillRandom(5)
		}
		// Unlimited shots: the convolutions' grids fault too and recover
		// on the reference path; the tail sweep has nothing to fall back
		// to, so its fault is the forward's error.
		faultinject.ArmN(faultinject.WorkerPanic, 0, -1)
		out, err := net.TryForward(&Engine{Algo: AlgoNDirect, Threads: 2}, x)
		faultinject.Reset()
		if !errors.Is(err, parallel.ErrWorkerPanic) {
			t.Fatalf("%s: TryForward = (%v, %v), want an error wrapping ErrWorkerPanic", block.Name(), out, err)
		}
	}
	// A mis-shaped shortcut is an error, not a panic.
	y, id := tensor.New(1, 4, 3, 3), tensor.New(1, 4, 3, 2)
	if err := addReLU(y, id, 2); !errors.Is(err, conv.ErrDimMismatch) {
		t.Fatalf("addReLU on mismatched shapes = %v, want ErrDimMismatch", err)
	}
}

// poisonPools replaces every parked tensor's values in the engine's
// pools with NaNs, so any output element its producer fails to write
// shows.
func poisonPools(eng *Engine) (poisoned int) {
	nan := float32(math.NaN())
	eng.pools.Range(func(_, p any) bool {
		pool := p.(*sync.Pool)
		var parked []*tensor.Tensor
		for {
			t, _ := pool.Get().(*tensor.Tensor)
			if t == nil {
				break
			}
			for i := range t.Data {
				t.Data[i] = nan
			}
			parked = append(parked, t)
		}
		for _, t := range parked {
			pool.Put(t)
		}
		poisoned += len(parked)
		return true
	})
	return poisoned
}

// Conv, pool, FC and softmax outputs are drawn uncleared: their
// producers overwrite every element, on the fallback paths too. With the
// pools pre-filled with NaN the forward outputs do not change — plain,
// with every grid faulting onto the reference path, and on the reference
// engine.
func TestPoisonedPoolLeavesOutputsUnchanged(t *testing.T) {
	defer faultinject.Reset()
	quiet := core.Logf
	core.Logf = func(string, ...any) {}
	defer func() { core.Logf = quiet }()

	b := builderForTest()
	fc := b.fc("fc", 9, 7, true)
	whole := &Network{Name: "whole", Layers: append(residualBlocks(true),
		&MaxPool{K: 2, Str: 2}, b.dsc("dsc", 9, 9, 6, 1), GlobalAvgPool{}, fc, Softmax{})}
	x := blockInputC(2, 6, true)
	type forward struct {
		name string
		net  *Network
		x    *tensor.Tensor
		arm  bool // every grid's first cell panics: reference recompute
	}
	// The blocks alone under injection: their fused tails leave no sweep
	// for the fault to land in, so every fault is recovered.
	fast := []forward{{name: "plain", net: whole, x: x}}
	nets, inputs := exactBlockNets(2)
	for i, net := range nets {
		fast = append(fast, forward{name: "faulting " + net.Name, net: net, x: inputs[i], arm: true})
	}
	for name, c := range map[string]struct {
		eng      *Engine
		forwards []forward
	}{
		"fast": {&Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}, fast},
		"reference": {&Engine{Algo: AlgoNDirect, Threads: 1, Reuse: true, ForceReference: true},
			[]forward{{name: "plain", net: whole, x: x}}},
	} {
		for _, f := range c.forwards {
			run := func(eng *Engine) (*tensor.Tensor, error) { return f.net.TryForward(eng, f.x) }
			var want *tensor.Tensor
			for i := 0; i < 2; i++ { // the second forward parks every intermediate size
				out, err := run(c.eng)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, f.name, err)
				}
				want = out.Clone()
				c.eng.release(out)
			}
			if poisonPools(c.eng) == 0 {
				t.Logf("%s/%s: the runtime emptied the pools between forwards; nothing to poison", name, f.name)
				continue
			}
			if f.arm {
				faultinject.ArmN(faultinject.WorkerPanic, 0, -1)
			}
			got, err := run(c.eng)
			faultinject.Reset()
			if err != nil {
				t.Fatalf("%s/%s on poisoned pools: %v", name, f.name, err)
			}
			requireSameBits(t, name+"/"+f.name, got, want)
		}
	}
}
