package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
	"ndirect/internal/tensor"
)

// storeCase is one tile store: layout, tile width, whether it adds to
// what the output holds (a later channel tile), which epilogue steps run
// (all false = not the last channel tile) and the operand mix.
type storeCase struct {
	nchw                         bool
	vwEff, stride                int
	accumulate                   bool
	bias, affine, residual, relu bool
	special                      bool
}

func (c storeCase) String() string {
	return fmt.Sprintf("nchw=%v vwEff=%d stride=%d accumulate=%v bias=%v affine=%v residual=%v relu=%v special=%v",
		c.nchw, c.vwEff, c.stride, c.accumulate, c.bias, c.affine, c.residual, c.relu, c.special)
}

// storeSentinel is what every element around the tile holds: a NaN with
// the index in its payload, so a store that writes one changes its bits
// and a store that reads one into a lane poisons a compared result.
func storeSentinel(i int) float32 {
	return math.Float32frombits(0x7fc00000 | uint32(i)&0x3fffff)
}

const (
	storePad   = 29 // sentinel elements either side of the tile's span
	storeKBase = 8  // the K-block under test: channels 8..15 of 24
)

// sameStoredBits is sameAccBits for one element.
func sameStoredBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// checkStores runs the vector store and the Go storeTile on the same
// accumulator file, output and residual and requires the same bits in
// every tile element, untouched sentinels everywhere else, and untouched
// operands. dst and res are sliced to end at the tile's last element, so
// the wrapper's extent proof is exercised at its edge.
func checkStores(t testing.TB, rng *rand.Rand, c storeCase) {
	t.Helper()
	// NaN and −MaxFloat32 join the special operands: the values on which
	// the MAXPS operand order and a mul+add vs fused difference would show.
	val := operandValues(rng, c.special, float32(math.NaN()), -math.MaxFloat32)
	var acc accFile8
	for i := range acc { // columns past vwEff too: they must never land
		for l := range acc[i] {
			acc[i][l] = val()
		}
	}
	last := (c.vwEff-1)*c.stride + 7
	if c.nchw {
		last = 7*c.stride + c.vwEff - 1
	}
	inTile := make([]bool, last+1)
	for k := 0; k < 8; k++ {
		for ow := 0; ow < c.vwEff; ow++ {
			if c.nchw {
				inTile[k*c.stride+ow] = true
			} else {
				inTile[ow*c.stride+k] = true
			}
		}
	}
	arena := func(fill bool) []float32 {
		a := make([]float32, storePad+last+1+storePad)
		for i := range a {
			a[i] = storeSentinel(i)
			if j := i - storePad; fill && j >= 0 && j <= last && inTile[j] {
				a[i] = val()
			}
		}
		return a
	}
	out0 := arena(c.accumulate) // a first-tile store must not read what dst holds
	var res0 []float32
	var ep *epilogue
	if c.bias || c.affine || c.residual || c.relu {
		ep = &epilogue{residual: c.residual, relu: c.relu}
		params := func() []float32 {
			p := make([]float32, 24)
			for i := range p {
				p[i] = val()
			}
			return p
		}
		if c.bias {
			ep.bias = params()
		}
		if c.affine {
			ep.scale, ep.shift = params(), params()
		}
		if c.residual {
			res0 = arena(true)
		}
	}
	tile := func(a []float32) []float32 {
		if a == nil {
			return nil
		}
		return a[storePad : storePad+last+1 : storePad+last+1]
	}

	want := append([]float32(nil), out0...)
	storeTile(&acc, tile(want), tile(res0), ep, storeKBase, storeKBase+8, c.stride, c.vwEff, c.nchw, c.accumulate)
	for i, v := range want {
		if j := i - storePad; (j < 0 || j > last || !inTile[j]) && math.Float32bits(v) != math.Float32bits(out0[i]) {
			t.Fatalf("%v: the Go store wrote element %d outside the tile", c, j)
		}
	}
	if !hasVectorBody {
		return
	}
	got := append([]float32(nil), out0...)
	res := append([]float32(nil), res0...)
	accIn := acc
	vectorStore(&acc, tile(got), tile(res), ep, storeKBase, c.stride, c.vwEff, c.nchw, c.accumulate)
	for i := range got {
		j := i - storePad
		if j >= 0 && j <= last && inTile[j] {
			if !sameStoredBits(got[i], want[i]) {
				t.Fatalf("%v: tile element %d = %x, the Go store writes %x", c, j, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		} else if math.Float32bits(got[i]) != math.Float32bits(out0[i]) {
			t.Fatalf("%v: the vector store wrote element %d outside the tile", c, j)
		}
	}
	for i := range acc {
		for l := range acc[i] {
			if math.Float32bits(acc[i][l]) != math.Float32bits(accIn[i][l]) {
				t.Fatalf("%v: the vector store modified the accumulator file", c)
			}
		}
	}
	for i := range res {
		if math.Float32bits(res[i]) != math.Float32bits(res0[i]) {
			t.Fatalf("%v: the vector store wrote residual element %d", c, i-storePad)
		}
	}
}

// storeStrides are the strides a layout is stored with: the tightest
// legal one, a ResNet-like one and one that is neither a multiple of the
// vector width nor of the tile.
func storeStrides(nchw bool, vwEff int) []int {
	if nchw {
		return []int{vwEff, 56 * 56, maxVw + 37}
	}
	return []int{8, 64, 8 + 5}
}

// TestStoreEquivalence is the battery both stores answer to: layout ×
// tile width × {first tile, accumulate} × every epilogue subset × stride
// × ordinary and special operands.
func TestStoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, nchw := range []bool{true, false} {
		for vwEff := 1; vwEff <= maxVw; vwEff++ {
			for _, stride := range storeStrides(nchw, vwEff) {
				for flags := 0; flags < 64; flags++ {
					checkStores(t, rng, storeCase{
						nchw: nchw, vwEff: vwEff, stride: stride,
						accumulate: flags&1 != 0, bias: flags&2 != 0, affine: flags&4 != 0,
						residual: flags&8 != 0, relu: flags&16 != 0, special: flags&32 != 0,
					})
				}
			}
		}
	}
}

// FuzzVectorStore drives the same comparison from fuzzed widths, strides
// and operand seeds.
func FuzzVectorStore(f *testing.F) {
	f.Add(true, uint8(11), uint16(3136-12), uint8(0b10100), false, int64(1)) // NCHW full tile, BN+ReLU
	f.Add(true, uint8(6), uint16(42), uint8(0b11101), true, int64(2))        // NCHW 7 wide, accumulate+affine+residual+ReLU
	f.Add(false, uint8(1), uint16(0), uint8(0b01010), true, int64(3))        // NHWC 2 wide, bias+residual
	f.Fuzz(func(t *testing.T, nchw bool, vwRaw uint8, extraStride uint16, flags uint8, special bool, seed int64) {
		vwEff := int(vwRaw)%maxVw + 1
		stride := 8 + int(extraStride)%4096
		if nchw {
			stride = vwEff + int(extraStride)%4096
		}
		checkStores(t, rand.New(rand.NewSource(seed)), storeCase{
			nchw: nchw, vwEff: vwEff, stride: stride,
			accumulate: flags&1 != 0, bias: flags&2 != 0, affine: flags&4 != 0,
			residual: flags&8 != 0, relu: flags&16 != 0, special: special,
		})
	})
}

// TestVectorStoreProvesExtents: the Go wrapper, not the assembly, stands
// between a short operand and an out-of-bounds access — it must panic
// before the routine runs, and leave everything alone on a bad width.
func TestVectorStoreProvesExtents(t *testing.T) {
	if !hasVectorBody {
		t.Skip("no vector store on this host")
	}
	var acc accFile8
	ep := &epilogue{residual: true, bias: make([]float32, 15)}
	dst, res := make([]float32, 7*20+12), make([]float32, 7*20+12)
	for name, call := range map[string]func(){
		"short dst":  func() { vectorStore(&acc, dst[:len(dst)-1], res, ep, 0, 20, 12, true, false) },
		"short res":  func() { vectorStore(&acc, dst, res[:len(res)-1], ep, 0, 20, 12, true, false) },
		"short bias": func() { vectorStore(&acc, dst, res, ep, 8, 20, 12, true, false) },
		"short nhwc": func() { vectorStore(&acc, dst[:11*8+7], res, ep, 0, 8, 12, false, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: vectorStore did not panic", name)
				}
			}()
			call()
		}()
	}
	for i := range dst {
		dst[i] = storeSentinel(i)
	}
	for _, vwEff := range []int{0, -1, 13} {
		vectorStore(&acc, dst, res, nil, 0, 20, vwEff, true, false)
	}
	for i, v := range dst {
		if math.Float32bits(v) != math.Float32bits(storeSentinel(i)) {
			t.Fatalf("a bad tile width stored element %d", i)
		}
	}
}

// A ragged K-block is the Go store's whatever the execution resolved:
// the vector store takes eight channels or none.
func TestRaggedKBlockUsesGoStore(t *testing.T) {
	const fam = "12x8.r1s1.s1"
	m := meterFamily(t, fam)
	s := conv.Shape{N: 2, C: 5, H: 6, W: 14, K: 13, R: 1, S: 1, Str: 1}
	in, filter := s.NewInput(), s.NewFilter()
	in.FillRandom(1)
	filter.FillRandom(2)
	ep := &EpilogueParams{Bias: make([]float32, s.K), Scale: make([]float32, s.K), Shift: make([]float32, s.K), ReLU: true}
	for k := 0; k < s.K; k++ {
		ep.Bias[k], ep.Scale[k], ep.Shift[k] = float32(k)-6, 1+float32(k)/8, float32(k%3)-1
	}
	tiles := s.N * s.P() * ((s.Q() + maxVw - 1) / maxVw)
	for _, nchw := range []bool{true, false} {
		p := NewPlan(s, Options{Threads: 1, FusedEpilogue: ep})
		run := func() *tensor.Tensor {
			if nchw {
				out := s.NewOutput()
				if err := p.TryExecute(in, filter, out); err != nil {
					t.Fatal(err)
				}
				return out
			}
			out := tensor.New(s.N, s.P(), s.Q(), s.K)
			if err := p.TryExecuteNHWC(tensor.NCHWToNHWC(in), filter, out); err != nil {
				t.Fatal(err)
			}
			return out
		}
		*m = bodyMeter{}
		live := run()
		if hasVectorBody && m.stores != tiles {
			t.Fatalf("nchw=%v: %d vector stores, want %d: one per tile for the full K-block, none for the ragged one", nchw, m.stores, tiles)
		}
		QuarantineKernelFamily(fam)
		*m = bodyMeter{}
		quarantined := run()
		RestoreKernelFamily(fam)
		if m.stores != 0 {
			t.Fatalf("nchw=%v: %d vector stores under quarantine", nchw, m.stores)
		}
		for i := range live.Data {
			if !sameStoredBits(live.Data[i], quarantined.Data[i]) {
				t.Fatalf("nchw=%v: element %d: vector store path %g, Go store path %g", nchw, i, live.Data[i], quarantined.Data[i])
			}
		}
	}
}

// residualCase builds a plan with the full epilogue and a residual step,
// its operands, and the sweep-form result: convolution, then bias →
// affine → (+residual) → ReLU as separate passes over the whole tensor.
// exact makes every operand a small integer, so the float64 reference
// path computes the same bits as the float32 kernels.
func residualCase(t *testing.T, s conv.Shape, opt Options, exact bool) (p *Plan, in, filter, res, want *tensor.Tensor) {
	t.Helper()
	in, filter, res = s.NewInput(), s.NewFilter(), s.NewOutput()
	in.FillRandom(3)
	filter.FillRandom(4)
	res.FillRandom(5)
	scaleStep := float32(1) / 16
	if exact {
		fillProbe(in.Data, 3)
		fillProbe(filter.Data, 4)
		fillProbe(res.Data, 5)
		scaleStep = 1
	}
	ep := &EpilogueParams{Bias: make([]float32, s.K), Scale: make([]float32, s.K), Shift: make([]float32, s.K), Residual: true, ReLU: true}
	for k := 0; k < s.K; k++ {
		ep.Bias[k], ep.Scale[k], ep.Shift[k] = float32(k%5)-2, 1+float32(k%4)*scaleStep, float32(k%3)-1
	}
	opt.FusedEpilogue = ep
	p = NewPlan(s, opt)
	plain := opt
	plain.FusedEpilogue = nil
	want = s.NewOutput()
	if err := NewPlan(s, plain).TryExecute(in, filter, want); err != nil {
		t.Fatal(err)
	}
	pq := s.P() * s.Q()
	for i := range want.Data {
		k := i / pq % s.K
		v := want.Data[i] + ep.Bias[k]
		v = v*ep.Scale[k] + ep.Shift[k]
		v += res.Data[i]
		if v < 0 {
			v = 0
		}
		want.Data[i] = v
	}
	return p, in, filter, res, want
}

// The residual step through a whole plan: packed and unpacked, vector
// and Go store (quarantine), several channel tiles (so the last store
// both accumulates and finishes) and a ragged K, each == the sweep form.
func TestResidualEpilogueMatchesSweeps(t *testing.T) {
	s := conv.Shape{N: 2, C: 11, H: 9, W: 15, K: 21, R: 3, S: 3, Str: 1, Pad: 1}
	for name, opt := range map[string]Options{
		"one-tile":    {Threads: 2},
		"three-tiles": {Threads: 2, ForceTc: 4},
	} {
		p, in, filter, res, want := residualCase(t, s, opt, false)
		pf, err := p.TransformFilter(filter)
		if err != nil {
			t.Fatal(err)
		}
		for _, quarantine := range []bool{false, true} {
			if quarantine {
				QuarantineKernelFamily("12x8.r3s3.s1")
			}
			for _, packed := range []*PackedFilter{nil, pf} {
				out := s.NewOutput()
				err := p.TryExecuteResidualCtx(context.Background(), in, filter, packed, res, out)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := range out.Data {
					if math.Float32bits(out.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("%s quarantine=%v packed=%v kernel %s: element %d = %g, sweeps give %g",
							name, quarantine, packed != nil, p.KernelName(), i, out.Data[i], want.Data[i])
					}
				}
			}
			RestoreKernelFamily("12x8.r3s3.s1")
		}
	}
}

// The fault fallback replays the residual step (applyFallback: bias →
// affine → residual → ReLU) when it recomputes a faulted grid in place.
func TestResidualFallbacksReplayResidual(t *testing.T) {
	defer faultinject.Reset()
	s := conv.Shape{N: 1, C: 6, H: 8, W: 13, K: 11, R: 3, S: 3, Str: 1, Pad: 1}
	p, in, filter, res, want := residualCase(t, s, Options{Threads: 2}, true)
	out := s.NewOutput()
	faultinject.Arm(faultinject.WorkerPanic, 0)
	if err := p.TryExecuteResidualCtx(context.Background(), in, filter, nil, res, out); err != nil {
		t.Fatal(err)
	}
	faultinject.Reset()
	for i := range out.Data {
		if out.Data[i] != want.Data[i] {
			t.Fatalf("reference fallback: element %d = %g, sweeps give %g", i, out.Data[i], want.Data[i])
		}
	}
}

// A plan built with Residual executes only with the operand, and the
// operand goes only to such a plan: every other pairing is a typed
// ErrBadOptions, as is a residual that aliases the output or asking a
// depthwise or separable stage for one.
func TestResidualOperandIsTyped(t *testing.T) {
	s := conv.Shape{N: 1, C: 4, H: 6, W: 6, K: 8, R: 1, S: 1, Str: 1}
	p, in, filter, res, _ := residualCase(t, s, Options{Threads: 1}, false)
	plain := NewPlan(s, Options{Threads: 1})
	pf, err := p.TransformFilter(filter)
	if err != nil {
		t.Fatal(err)
	}
	out := s.NewOutput()
	for name, err := range map[string]error{
		"TryExecute":       p.TryExecute(in, filter, out),
		"TryExecutePacked": p.TryExecutePacked(in, pf, out),
		"TryExecuteRef":    p.TryExecuteReferenceCtx(context.Background(), in, filter, out),
		"no operand":       p.TryExecuteResidualCtx(context.Background(), in, filter, nil, nil, out),
		"plain plan":       plain.TryExecuteResidualCtx(context.Background(), in, filter, nil, res, out),
		"aliased":          p.TryExecuteResidualCtx(context.Background(), in, filter, nil, out, out),
		"one-shot TryConv2D": func() error {
			_, err := TryConv2D(s, in, filter, Options{FusedEpilogue: &EpilogueParams{Residual: true}})
			return err
		}(),
	} {
		if !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s = %v, want ErrBadOptions", name, err)
		}
	}
	short := tensor.New(s.N, s.K, s.P(), s.Q()-1)
	if err := p.TryExecuteResidualCtx(context.Background(), in, filter, nil, short, out); !errors.Is(err, conv.ErrDimMismatch) {
		t.Errorf("mis-shaped residual = %v, want ErrDimMismatch", err)
	}
	resEp := &EpilogueParams{Residual: true}
	if _, err := TryNewDepthwisePlan(conv.Shape{N: 1, C: 4, H: 6, W: 6, K: 4, R: 3, S: 3, Str: 1, Pad: 1}, Options{FusedEpilogue: resEp}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("depthwise plan with Residual = %v, want ErrBadOptions", err)
	}
	ss := SeparableShape{N: 1, C: 4, H: 6, W: 6, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	if _, err := TryNewSeparablePlan(ss, Options{FusedEpilogue: resEp}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("separable plan with a pointwise Residual = %v, want ErrBadOptions", err)
	}
	if _, err := TryNewSeparablePlan(ss, Options{DepthwiseEpilogue: resEp}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("separable plan with a depthwise Residual = %v, want ErrBadOptions", err)
	}
}
