package core

import (
	"math"
	"math/rand"
	"testing"

	"ndirect/internal/conv"
)

// bodyImpl is one implementation of the V_k=8 main micro-kernel body in
// kernel12x8's calling convention.
type bodyImpl struct {
	name string
	run  func(acc *accFile8, buf, tf []float32, rows, s, str, vwEff, pitch int)
}

// bodyImpls is every implementation of the body besides the looped
// kernel12x8 they are all compared against: the vector body, where the
// host has one.
func bodyImpls() []bodyImpl {
	if hasVectorBody {
		return []bodyImpl{{name: "vector", run: vector12x8}}
	}
	return nil
}

// operandValues draws test operands: ordinary values in [-2, 2), or,
// with special, a third of them denormals, signed zeros, infinities and
// the largest finite value (plus any more given) — a vector routine must
// round, flush and propagate exactly like the scalar MULSS+ADDSS pair
// (Inf·0 and Inf−Inf make NaNs).
func operandValues(rng *rand.Rand, special bool, more ...float32) func() float32 {
	if !special {
		return func() float32 { return rng.Float32()*4 - 2 }
	}
	specials := append([]float32{
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, 1e-20, -1e-20,
	}, more...)
	return func() float32 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.Float32()*4 - 2
	}
}

// bodyOperands builds the smallest operands one body call may touch —
// buf ends at the last element of the last row's window, so an
// implementation that reads a column at or past vwEff in the last row
// trips the slice bound (Go bodies) or the wrapper's extent check.
func bodyOperands(rng *rand.Rand, rows, s, str, vwEff, pitch int, special bool) (acc accFile8, buf, tf []float32) {
	buf = make([]float32, (rows-1)*pitch+(vwEff-1)*str+s)
	tf = make([]float32, rows*s*8)
	val := operandValues(rng, special)
	for i := range buf {
		buf[i] = val()
	}
	for i := range tf {
		tf[i] = val()
	}
	for i := range acc {
		for l := range acc[i] {
			acc[i][l] = val() // non-zero initial accumulators
		}
	}
	return acc, buf, tf
}

// pairImpl is one implementation of the paired body, in vector12x16's
// calling convention.
type pairImpl struct {
	name string
	run  func(acc *accPair, buf, tf []float32, tfOff, rows, s, str, vwEff, pitch int)
}

// pairImpls is every paired body: the AVX-512 one, where the host has it.
func pairImpls() []pairImpl {
	if hasPairBody {
		return []pairImpl{{name: "avx512", run: vector12x16}}
	}
	return nil
}

// sameAccBits compares two accumulator files bit for bit, treating every
// NaN as equal to every other (which operand's payload survives an
// all-NaN add is the one thing the ISA leaves to operand order).
func sameAccBits(a, b *accFile8) (int, bool) {
	for i := range a {
		for l := range a[i] {
			x, y := a[i][l], b[i][l]
			if math.Float32bits(x) != math.Float32bits(y) && !(x != x && y != y) {
				return i*4 + l, false
			}
		}
	}
	return 0, true
}

// checkBodies runs every implementation written for (s, str) on the same
// operands and requires the looped kernel's accumulator bits — including
// the untouched columns past vwEff — and untouched operands. A paired
// body runs the same operands as its block 0 and a second filter block
// and accumulator file, tfOff floats on, as its block 1: each half must
// store exactly the single-block body's bits for its block, NaN payloads
// included.
func checkBodies(t testing.TB, rng *rand.Rand, rows, s, str, vwEff, pitch int, special bool) {
	t.Helper()
	acc0, buf, tf := bodyOperands(rng, rows, s, str, vwEff, pitch, special)
	want := acc0
	kernel12x8(&want, buf, tf, rows, s, str, vwEff, pitch)
	for _, impl := range bodyImpls() {
		got := acc0
		impl.run(&got, buf, tf, rows, s, str, vwEff, pitch)
		if lane, ok := sameAccBits(&got, &want); !ok {
			t.Fatalf("%s: rows=%d S=%d str=%d vwEff=%d pitch=%d special=%v: lane %d = %x, looped kernel12x8 stores %x",
				impl.name, rows, s, str, vwEff, pitch, special, lane,
				math.Float32bits(got[lane/4][lane%4]), math.Float32bits(want[lane/4][lane%4]))
		}
	}
	pairs := pairImpls()
	if len(pairs) == 0 {
		return
	}
	acc1, _, tf1 := bodyOperands(rng, rows, s, str, vwEff, pitch, special)
	// Block 1 sits past block 0 and a gap of whole filter vectors, as in a
	// pre-transformed filter's [⌈K/8⌉][C][R][S][8] layout; tf ends where
	// block 1 does.
	tfOff := len(tf) + 8*rng.Intn(4)
	pairTF := append(append(append([]float32(nil), tf...), make([]float32, tfOff-len(tf))...), tf1...)
	var wantPair accPair
	wantPair[0], wantPair[1] = acc0, acc1
	vector12x8(&wantPair[0], buf, pairTF, rows, s, str, vwEff, pitch)
	vector12x8(&wantPair[1], buf, pairTF[tfOff:], rows, s, str, vwEff, pitch)
	for _, impl := range pairs {
		var got accPair
		got[0], got[1] = acc0, acc1
		impl.run(&got, buf, pairTF, tfOff, rows, s, str, vwEff, pitch)
		for half := range got {
			for i := range got[half] {
				for l := range got[half][i] {
					g, w := math.Float32bits(got[half][i][l]), math.Float32bits(wantPair[half][i][l])
					if g != w {
						t.Fatalf("%s: rows=%d S=%d str=%d vwEff=%d pitch=%d tfOff=%d special=%v: block %d lane %d = %x, vector12x8 stores %x",
							impl.name, rows, s, str, vwEff, pitch, tfOff, special, half, i*4+l, g, w)
					}
				}
			}
		}
	}
}

// TestBodyEquivalence is the one battery every implementation of the
// body answers to: the vector body and the looped kernel12x8 store the
// same accumulator bits, and each half of the paired body the vector
// body's, for every S, stride,
// tile width, ragged row count and row pitch, from non-zero accumulators,
// on ordinary and on denormal / signed-zero / infinite operands.
func TestBodyEquivalence(t *testing.T) {
	if !hasPairBody {
		t.Log("no AVX-512F on this host: the paired body is not checked")
	}
	rng := rand.New(rand.NewSource(16))
	for _, s := range []int{1, 3, 7} {
		for _, str := range []int{1, 2} {
			wIn := (maxVw-1)*str + s
			for vwEff := 1; vwEff <= maxVw; vwEff++ {
				// rows = tc·R for ragged channel tiles: a single row, R=3 and
				// R=7 multiples, a prime; pitch = the packed buffer's wIn, a
				// separable-style channel plane and an in-place 1×1 tile's
				// input plane (14·14).
				for _, rows := range []int{1, 3, 5, 21} {
					for _, pitch := range []int{wIn, wIn + 37, 196} {
						for _, special := range []bool{false, true} {
							checkBodies(t, rng, rows, s, str, vwEff, pitch, special)
						}
					}
				}
			}
		}
	}
}

// TestBodyRejectsBadExtents: a body handed a tile width outside 1..12
// (or no rows) leaves the accumulators alone instead of touching memory.
func TestBodyRejectsBadExtents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	acc0, buf, tf := bodyOperands(rng, 3, 3, 1, 12, 14, false)
	for _, impl := range bodyImpls() {
		for _, bad := range []struct{ rows, vwEff int }{{3, 0}, {3, -1}, {3, 13}, {0, 12}} {
			got := acc0
			impl.run(&got, buf, tf, bad.rows, 3, 1, bad.vwEff, 14)
			if got != acc0 {
				t.Fatalf("%s: rows=%d vwEff=%d modified the accumulators", impl.name, bad.rows, bad.vwEff)
			}
		}
	}
	pairTF := append(append([]float32(nil), tf...), tf...)
	for _, impl := range pairImpls() {
		for _, bad := range []struct{ rows, vwEff, tfOff int }{{3, 0, len(tf)}, {3, 13, len(tf)}, {0, 12, len(tf)}, {3, 12, -8}} {
			got := accPair{acc0, acc0}
			impl.run(&got, buf, pairTF, bad.tfOff, bad.rows, 3, 1, bad.vwEff, 14)
			if got != (accPair{acc0, acc0}) {
				t.Fatalf("%s: rows=%d vwEff=%d tfOff=%d modified the accumulators", impl.name, bad.rows, bad.vwEff, bad.tfOff)
			}
		}
	}
}

// TestVectorBodyProvesExtents: the Go wrappers, not the assembly, are
// what stands between a short operand and an out-of-bounds access — the
// main body's and the depthwise body's must panic before the body runs.
func TestVectorBodyProvesExtents(t *testing.T) {
	if !hasVectorBody {
		t.Skip("no vector body on this host")
	}
	rng := rand.New(rand.NewSource(2))
	_, buf, tf := bodyOperands(rng, 4, 3, 2, 12, 25, false)
	// The depthwise body: a 20×30 plane, output rows [2, 7) of 10×15.
	dw := conv.Shape{N: 1, C: 1, H: 20, W: 30, K: 1, R: 3, S: 3, Str: 2, Pad: 1}
	in, filter, dst := make([]float32, dw.H*dw.W), make([]float32, 9), make([]float32, 5*dw.Q())
	for name, call := range map[string]func(acc *accFile8){
		"short buf": func(acc *accFile8) { vector12x8(acc, buf[:len(buf)-1], tf, 4, 3, 2, 12, 25) },
		"short tf":  func(acc *accFile8) { vector12x8(acc, buf, tf[:len(tf)-1], 4, 3, 2, 12, 25) },
		"paired short buf": func(*accFile8) {
			vector12x16(&accPair{}, buf[:len(buf)-1], append(tf, tf...), len(tf), 4, 3, 2, 12, 25)
		},
		"paired short block 1": func(*accFile8) {
			vector12x16(&accPair{}, buf, append(tf, tf[1:]...), len(tf), 4, 3, 2, 12, 25)
		},
		"depthwise in":   func(*accFile8) { vectorDepthwise3x3(dw, in[:len(in)-1], filter, dst, 2, 7) },
		"depthwise taps": func(*accFile8) { vectorDepthwise3x3(dw, in, filter[:8], dst, 2, 7) },
		"depthwise dst":  func(*accFile8) { vectorDepthwise3x3(dw, in, filter, dst[:len(dst)-1], 2, 7) },
		"depthwise shape": func(*accFile8) {
			vectorDepthwise3x3(conv.Shape{H: 20, W: 30, R: 3, S: 3, Str: 3}, in, filter, dst, 2, 7)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: the wrapper did not panic", name)
				}
			}()
			var acc accFile8
			call(&acc)
		}()
	}
}

// FuzzVectorBody drives the same comparison — the paired body's halves
// included — from fuzzed extents and operand seeds.
func FuzzVectorBody(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(11), uint8(8), uint8(0), false, int64(1)) // 3×3 s1, full tile
	f.Add(uint8(6), uint8(1), uint8(6), uint8(20), uint8(3), true, int64(2))  // 7×7 s2 stem, ragged tile
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(200), true, int64(3)) // 1×1, one column, plane pitch
	f.Fuzz(func(t *testing.T, sRaw, strRaw, vwRaw, rowsRaw, extraPitch uint8, special bool, seed int64) {
		s := int(sRaw)%7 + 1
		str := int(strRaw)%3 + 1
		vwEff := int(vwRaw)%maxVw + 1
		rows := int(rowsRaw)%48 + 1
		pitch := (maxVw-1)*str + s + int(extraPitch)
		checkBodies(t, rand.New(rand.NewSource(seed)), rows, s, str, vwEff, pitch, special)
	})
}
