package core

import (
	"math"
	"math/rand"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

// dwBodyImpl is one implementation of the 3×3 depthwise body.
type dwBodyImpl struct {
	name string
	run  depthwiseKernel
}

// dwBodyImpls is every implementation of the 3×3 depthwise body besides
// the depthwisePlaneRange oracle they are compared against: the vector
// body, where the host has one.
func dwBodyImpls() []dwBodyImpl {
	if hasVectorBody {
		return []dwBodyImpl{{"vector", vectorDepthwise3x3}}
	}
	return nil
}

// dwBodyGuard is what checkDepthwiseBody writes past the destination:
// a body that stores a column or a row too many overwrites it.
const dwBodyGuard = float32(-12345.5)

// checkDepthwiseBody runs every depthwise body on one plane of s, rows
// [h0, h1), and requires the oracle's output bits (every NaN equal to
// every other) and nothing written past the destination.
func checkDepthwiseBody(t testing.TB, rng *rand.Rand, s conv.Shape, h0, h1 int, special bool) {
	t.Helper()
	val := operandValues(rng, special)
	in, filter := make([]float32, s.H*s.W), make([]float32, 9)
	for i := range in {
		in[i] = val()
	}
	for i := range filter {
		filter[i] = val()
	}
	q := s.Q()
	n := (h1 - h0) * q
	want := make([]float32, n)
	depthwisePlaneRange(s, in, filter, want, h0, h1)
	for _, impl := range dwBodyImpls() {
		buf := make([]float32, n+q)
		for i := range buf {
			buf[i] = dwBodyGuard
		}
		impl.run(s, in, filter, buf[:n:n], h0, h1)
		for i, y := range want {
			if x := buf[i]; math.Float32bits(x) != math.Float32bits(y) && !(x != x && y != y) {
				t.Fatalf("%s: %v rows [%d,%d) special=%v: output row %d column %d = %g (%#x), depthwisePlaneRange stores %g (%#x)",
					impl.name, s, h0, h1, special, h0+i/q, i%q, x, math.Float32bits(x), y, math.Float32bits(y))
			}
		}
		for i := n; i < len(buf); i++ {
			if buf[i] != dwBodyGuard {
				t.Fatalf("%s: %v rows [%d,%d): wrote %d floats past the destination", impl.name, s, h0, h1, i-n+1)
			}
		}
	}
}

// TestDepthwiseBodyEquivalence: the vector body stores the oracle's bits
// for both strides, planes from 1×1 to 40×40 (narrower than one block,
// shorter than the filter, with and without a ragged last block), pad 0
// through 4 (pad > R included), whole planes and the partial row ranges
// SeparablePlan's row tiles and DepthwisePlan's split planes ask for, on
// ordinary and on signed-zero / denormal / infinite operands.
func TestDepthwiseBodyEquivalence(t *testing.T) {
	if dwBodyImpls() == nil {
		t.Skip("no depthwise body besides the oracle on this host")
	}
	rng := rand.New(rand.NewSource(31))
	dims := []int{1, 2, 3, 5, 8, 9, 11, 16, 17, 19, 24, 26, 33, 40}
	for _, str := range []int{1, 2} {
		for pad := 0; pad <= 4; pad++ {
			for _, h := range []int{1, 2, 3, 7, 16, 40} {
				for _, w := range dims {
					s := conv.Shape{N: 1, C: 1, H: h, W: w, K: 1, R: 3, S: 3, Str: str, Pad: pad}
					if s.Validate() != nil {
						continue // no output
					}
					pp := s.P()
					for _, special := range []bool{false, true} {
						checkDepthwiseBody(t, rng, s, 0, pp, special)
					}
					// Row tiles: the first row, a middle range, the last row.
					checkDepthwiseBody(t, rng, s, 0, 1, true)
					checkDepthwiseBody(t, rng, s, pp/3, pp-pp/3, false)
					checkDepthwiseBody(t, rng, s, pp-1, pp, true)
				}
			}
		}
	}
}

// FuzzDepthwiseBody drives the same comparison from fuzzed geometry,
// row range and operand seed.
func FuzzDepthwiseBody(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(111), uint8(20), uint8(0), uint8(255), false, int64(1)) // L29-like s1 row tile
	f.Add(uint8(1), uint8(1), uint8(22), uint8(13), uint8(2), uint8(3), true, int64(2))     // s2, ragged last block
	f.Add(uint8(1), uint8(4), uint8(3), uint8(1), uint8(0), uint8(1), true, int64(3))       // pad > R, narrower than a block
	f.Fuzz(func(t *testing.T, strRaw, padRaw, wRaw, hRaw, h0Raw, spanRaw uint8, special bool, seed int64) {
		s := conv.Shape{N: 1, C: 1, H: int(hRaw)%48 + 1, W: int(wRaw)%128 + 1, K: 1, R: 3, S: 3,
			Str: int(strRaw)%2 + 1, Pad: int(padRaw) % 5}
		if s.Validate() != nil {
			return
		}
		pp := s.P()
		h0 := int(h0Raw) % pp
		h1 := h0 + int(spanRaw)%(pp-h0) + 1
		checkDepthwiseBody(t, rand.New(rand.NewSource(seed)), s, h0, h1, special)
	})
}

// TestDepthwiseOracleSkipsPaddedTaps: a non-finite weight reaches only
// the outputs whose tap it multiplies an input at. Multiplying a
// zero-filled halo lane by the tap instead (as a 4-lane stride-1 path
// of the oracle once did) turns +Inf at tap (0, 0) into NaN in every
// left-column output, where the reference is finite. Every body — the
// oracle, and the family body, live and quarantined — must store the
// reference.
func TestDepthwiseOracleSkipsPaddedTaps(t *testing.T) {
	for _, str := range []int{1, 2} {
		s := conv.Shape{N: 1, C: 1, H: 8, W: 8, K: 1, R: 3, S: 3, Str: str, Pad: 1}
		in, filter := tensor.New(1, 1, 8, 8), tensor.New(1, 3, 3)
		for i := range in.Data {
			in.Data[i] = 1
		}
		for i := range filter.Data {
			filter.Data[i] = 1
		}
		filter.Data[0] = float32(math.Inf(1))
		want := depthwiseReference(s, in, filter)
		check := func(name string, got []float32) {
			t.Helper()
			for i, y := range want.Data {
				if x := got[i]; x != y {
					t.Fatalf("str=%d %s: output row %d column %d = %g, the reference is %g", str, name, i/s.Q(), i%s.Q(), x, y)
				}
			}
		}
		oracle := make([]float32, s.P()*s.Q())
		depthwisePlaneRange(s, in.Data, filter.Data, oracle, 0, s.P())
		check("depthwisePlaneRange", oracle)

		p, err := TryNewDepthwisePlan(s, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		fam := p.KernelName()
		for _, quarantined := range []bool{false, true} {
			if quarantined {
				QuarantineKernelFamily(fam)
			}
			out := tensor.New(1, 1, s.P(), s.Q())
			err := p.TryExecute(in, filter, out)
			name := p.KernelName()
			RestoreKernelFamily(fam)
			if err != nil {
				t.Fatal(err)
			}
			check(name, out.Data)
		}
	}
}

// TestDepthwiseProbeReachesVectorBlocks: the sentinel's golden probe
// sizes its plane so that on both families every part of the body runs
// — at least two 8-wide blocks with a ragged (overlapping) last one, a
// halo column on each side, and top and bottom edge rows — or a
// miscomputing block could never be quarantined.
func TestDepthwiseProbeReachesVectorBlocks(t *testing.T) {
	for _, name := range []string{"dw.r3s3.s1", "dw.r3s3.s2"} {
		f := familyByName(name)
		s := depthwiseProbeShape(f)
		lo, hi := dwVectorColumns(s)
		if n := hi - lo; n < 9 || n%8 == 0 {
			t.Errorf("%s probe %v: vector columns [%d, %d), want more than one block and a ragged last one", name, s, lo, hi)
		}
		if lo < 1 || hi > s.Q()-1 {
			t.Errorf("%s probe %v: vector columns [%d, %d) of %d leave no halo column on a side", name, s, lo, hi, s.Q())
		}
		if last := (s.P()-1)*s.Str - s.Pad + 2; s.Pad < 1 || last < s.H {
			t.Errorf("%s probe %v: no top and bottom edge row", name, s)
		}
	}
}
