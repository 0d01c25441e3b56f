package core

import (
	"math"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

// Fuzz target: any realisable shape must match the Algorithm 1 oracle
// within FP32 accumulation tolerance. Run `go test -fuzz FuzzConv2D`
// for open-ended exploration; the seed corpus runs in every ordinary
// `go test` invocation.
func FuzzConv2DAgainstReference(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(10), uint8(1), uint8(1), uint8(0), int64(1))
	f.Add(uint8(3), uint8(16), uint8(14), uint8(3), uint8(2), uint8(3), int64(2))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), int64(3))
	f.Add(uint8(64), uint8(13), uint8(7), uint8(2), uint8(1), uint8(2), int64(4))
	f.Fuzz(func(t *testing.T, cRaw, kRaw, hRaw, rsRaw, strRaw, padRaw uint8, seed int64) {
		s := conv.Shape{
			N:   1,
			C:   int(cRaw)%48 + 1,
			H:   int(hRaw)%18 + 1,
			W:   int(hRaw)%22 + 1,
			K:   int(kRaw)%48 + 1,
			R:   []int{1, 3, 5, 7}[int(rsRaw)%4],
			S:   []int{1, 3, 5, 7}[int(rsRaw)%4],
			Str: int(strRaw)%3 + 1,
			Pad: int(padRaw) % 4,
		}
		if !s.Valid() {
			t.Skip()
		}
		in := s.NewInput()
		in.FillRandom(seed)
		fl := s.NewFilter()
		fl.FillRandom(seed + 1)
		want := conv.Reference(s, in, fl)
		got := Conv2D(s, in, fl, Options{Threads: 2})
		if d := tensor.RelDiff(want, got); d > 5e-5 {
			t.Fatalf("shape %v: rel diff %g", s, d)
		}
	})
}

// fuzzEpilogue maps a fuzzed selector onto EpilogueParams: bit 0 asks
// for a bias of biasLen elements, bit 1 for ReLU — so 0–3 are none /
// bias / ReLU / bias+ReLU — and 4–5 add a Scale with no Shift, which no
// plan may accept.
func fuzzEpilogue(sel, biasLen int) *EpilogueParams {
	if sel == 0 {
		return nil
	}
	ep := &EpilogueParams{ReLU: sel&2 != 0}
	if sel&1 != 0 {
		ep.Bias = make([]float32, biasLen)
	}
	if sel >= 4 {
		ep.Scale = make([]float32, biasLen)
	}
	return ep
}

// Fuzz target for the checked API's never-panic property: whatever
// shape, operand tensors and options are thrown at TryConv2D, it must
// return (result, nil) or (nil, error) — never panic. With sane=true
// the inputs are constrained to realisable problems and the result is
// additionally checked against the Algorithm 1 oracle (including the
// fuzzed epilogue); with sane=false the raw values go in unclamped,
// including tensors whose buffers disagree with their shapes. forceVw
// and forceVk are unused: they keep the signature the checked-in corpus
// was recorded against.
func FuzzTryConv2D(f *testing.F) {
	f.Add(true, 8, 8, 10, 10, 8, 3, 3, 1, 1, int8(2), int8(0), int8(0), uint8(0), uint8(3), int64(1))
	f.Add(true, 1, 1, 1, 1, 1, 1, 1, 1, 0, int8(1), int8(12), int8(8), uint8(3), uint8(1), int64(2))
	f.Add(false, 0, -3, 5, 1<<30, 7, 3, 3, 0, -1, int8(-5), int8(3), int8(100), uint8(9), uint8(200), int64(3))
	f.Add(false, 1, 4, 8, 8, 4, 3, 3, 1, 1, int8(2), int8(0), int8(0), uint8(1), uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, sane bool, n, c, h, w, k, r, ss, str, pad int,
		threads, forceVw, forceVk int8, epiRaw, biasRaw uint8, seed int64) {
		defer func() {
			if rec := recover(); rec != nil {
				t.Fatalf("TryConv2D panicked: %v", rec)
			}
		}()
		// mod reduces v into [0, m) without the math.MinInt negation trap.
		mod := func(v, m int) int {
			r := v % m
			if r < 0 {
				r += m
			}
			return r
		}
		var s conv.Shape
		var in, fl *tensor.Tensor
		opt := Options{Threads: int(threads)}
		if sane {
			rs := []int{1, 3, 5}[mod(r, 3)]
			s = conv.Shape{
				N: mod(n, 2) + 1, C: mod(c, 8) + 1,
				H: mod(h, 12) + 1, W: mod(w, 12) + 1,
				K: mod(k, 8) + 1, R: rs, S: rs,
				Str: mod(str, 2) + 1, Pad: mod(pad, 3),
			}
			if !s.Valid() {
				t.Skip()
			}
			in = s.NewInput()
			in.FillRandom(seed)
			fl = s.NewFilter()
			fl.FillRandom(seed + 1)
			if opt.FusedEpilogue = fuzzEpilogue(int(epiRaw)%4, s.K); opt.FusedEpilogue != nil {
				for i := range opt.FusedEpilogue.Bias {
					opt.FusedEpilogue.Bias[i] = float32(i%5) - 2
				}
			}
		} else {
			s = conv.Shape{N: n, C: c, H: h, W: w, K: k, R: r, S: ss, Str: str, Pad: pad}
			// Tensors crafted to disagree with the shape: arbitrary
			// buffer lengths behind arbitrary Dims.
			in = &tensor.Tensor{Dims: []int{n, c, h, w}, Data: make([]float32, mod(n, 64))}
			fl = &tensor.Tensor{Dims: []int{k, c, r, ss}, Data: make([]float32, mod(k, 64))}
			// Two selectors past the valid range, bias length unrelated to K.
			opt.FusedEpilogue = fuzzEpilogue(int(epiRaw)%6, int(biasRaw)%32)
		}
		out, err := TryConv2D(s, in, fl, opt)
		if err != nil {
			if out != nil {
				t.Fatal("non-nil result alongside an error")
			}
			return
		}
		if out == nil {
			t.Fatal("nil result without an error")
		}
		if !sane {
			return
		}
		want := conv.Reference(s, in, fl)
		// Normalise by the pre-epilogue conv magnitude: ReLU clamps can
		// shrink the output scale arbitrarily, which would amplify
		// ordinary FP32 accumulation error into a false mismatch.
		scale := 1e-30
		for _, v := range want.Data {
			if a := math.Abs(float64(v)); a > scale {
				scale = a
			}
		}
		pq := s.P() * s.Q()
		var maxDiff float64
		ep := opt.FusedEpilogue
		for i, v := range want.Data {
			if ep != nil && ep.Bias != nil {
				v += ep.Bias[(i/pq)%s.K]
			}
			if ep != nil && ep.ReLU && v < 0 {
				v = 0
			}
			if d := math.Abs(float64(v) - float64(out.Data[i])); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff/scale > 5e-5 {
			t.Fatalf("shape %v opts %+v: rel diff %g", s, opt, maxDiff/scale)
		}
	})
}

// Fuzz target: TryNewPlan must reject (with an error) or plan — never
// panic — for arbitrary shapes and options, including pathological
// dimensions near the overflow guards. forceVw and forceVk are unused,
// kept for the corpus like FuzzTryConv2D's.
func FuzzTryNewPlan(f *testing.F) {
	f.Add(1, 64, 56, 56, 64, 3, 3, 1, 1, 8, 0, 0, 0, 0, 0, uint8(0))
	f.Add(0, -1, 1<<30, 1<<30, 1<<24, -3, 7, 0, -2, 1<<20, -4, 44, -1, 3, 1<<20, uint8(5))
	f.Add(2, 3, 19, 17, 9, 7, 7, 2, 3, 4097, 12, 8, 16, 32, 4, uint8(1))
	f.Fuzz(func(t *testing.T, n, c, h, w, k, r, ss, str, pad,
		threads, forceVw, forceVk, forceTc, forceTk, forceTh int, epiRaw uint8) {
		defer func() {
			if rec := recover(); rec != nil {
				t.Fatalf("TryNewPlan panicked: %v", rec)
			}
		}()
		s := conv.Shape{N: n, C: c, H: h, W: w, K: k, R: r, S: ss, Str: str, Pad: pad}
		opt := Options{
			Threads: threads,
			ForceTc: forceTc, ForceTk: forceTk, ForceTh: forceTh,
			FusedEpilogue: fuzzEpilogue(int(epiRaw)%6, int(epiRaw)%16),
		}
		plan, err := TryNewPlan(s, opt)
		if (plan == nil) == (err == nil) {
			t.Fatalf("exactly one of plan/err must be set: plan=%v err=%v", plan, err)
		}
	})
}

// Fuzz target for the NHWC entry point.
func FuzzConv2DNHWCAgainstReference(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint8(9), int64(1))
	f.Add(uint8(16), uint8(3), uint8(12), int64(2))
	f.Fuzz(func(t *testing.T, cRaw, kRaw, hRaw uint8, seed int64) {
		s := conv.Shape{
			N: 1, C: int(cRaw)%24 + 1,
			H: int(hRaw)%14 + 3, W: int(hRaw)%16 + 3,
			K: int(kRaw)%24 + 1, R: 3, S: 3, Str: 1, Pad: 1,
		}
		in := s.NewInput()
		in.FillRandom(seed)
		fl := s.NewFilter()
		fl.FillRandom(seed + 1)
		want := conv.Reference(s, in, fl)
		got := tensor.NHWCToNCHW(Conv2DNHWC(s, tensor.NCHWToNHWC(in), fl, Options{Threads: 2}))
		if d := tensor.RelDiff(want, got); d > 5e-5 {
			t.Fatalf("shape %v: rel diff %g", s, d)
		}
	})
}
