package core

import (
	"fmt"
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
// round, flush and propagate exactly like the oracle's fma32
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

// multiImpl is one multi-block body in vector12x16's calling
// convention, and how many K-blocks it runs per call.
type multiImpl struct {
	name   string
	blocks int
	run    func(acc *accTile, buf, tf []float32, tfOff, rows, s, str, vwEff, pitch int)
}

// multiImpls is every multi-block body: the AVX-512 paired and
// four-block ones, where the host has them.
func multiImpls() []multiImpl {
	if hasPairBody {
		return []multiImpl{{name: "avx512x2", blocks: 2, run: vector12x16}, {name: "avx512x4", blocks: 4, run: vector12x32}}
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

// blockOperands builds nb K-blocks of filter vectors for one tile, block
// b at tf[b*tfOff:] past a gap of whole filter vectors, as in a
// pre-transformed filter's [⌈K/8⌉][C][R][S][8] layout (tf ends where the
// last block does), and an initial accumulator file per block. Block 0
// is tf0 and acc0.
func blockOperands(rng *rand.Rand, nb, rows, s, str, vwEff, pitch int, special bool, acc0 accFile8, tf0 []float32) (tf []float32, tfOff int, init []accFile8) {
	tfOff = len(tf0) + 8*rng.Intn(4)
	tf = append([]float32(nil), tf0...)
	init = []accFile8{acc0}
	for b := 1; b < nb; b++ {
		acc, _, tfb := bodyOperands(rng, rows, s, str, vwEff, pitch, special)
		tf = append(append(tf, make([]float32, b*tfOff-len(tf))...), tfb...)
		init = append(init, acc)
	}
	return tf, tfOff, init
}

// checkBodies runs every implementation written for (s, str) on the same
// operands and requires the looped kernel's accumulator bits — including
// the untouched columns past vwEff — and untouched operands. A
// multi-block body runs the same operands as its block 0 and further
// filter blocks and accumulator files, tfOff floats apart, as its other
// blocks: each block must store exactly the single-block body's bits for
// it, NaN payloads included, and the accumulator files past its blocks
// stay untouched.
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
	multis := multiImpls()
	if len(multis) == 0 {
		return
	}
	blockTF, tfOff, init := blockOperands(rng, len(accTile{}), rows, s, str, vwEff, pitch, special, acc0, tf)
	var wantTile accTile
	for b := range wantTile {
		wantTile[b] = init[b]
		vector12x8(&wantTile[b], buf, blockTF[b*tfOff:], rows, s, str, vwEff, pitch)
	}
	for _, impl := range multis {
		var got accTile
		copy(got[:], init)
		impl.run(&got, buf, blockTF, tfOff, rows, s, str, vwEff, pitch)
		for b := range got {
			w := wantTile[b]
			if b >= impl.blocks {
				w = init[b]
			}
			for i := range got[b] {
				for l := range got[b][i] {
					if g, w := math.Float32bits(got[b][i][l]), math.Float32bits(w[i][l]); g != w {
						t.Fatalf("%s: rows=%d S=%d str=%d vwEff=%d pitch=%d tfOff=%d special=%v: block %d lane %d = %x, want %x",
							impl.name, rows, s, str, vwEff, pitch, tfOff, special, b, i*4+l, g, w)
					}
				}
			}
		}
	}
}

// hostBodies is what a plan of filter width s at stride str runs on
// this host: the standard family's bodies, the vector bodies where the
// host has them and the looped kernel12x8 otherwise.
func hostBodies(s, str int) bodies {
	b := standardFamily.body
	b.s, b.str = s, str
	return b
}

// checkBlockRun runs nb K-blocks of one register tile the way every
// V_k=8 consumer does — bodies.span and bodies.run over the host's
// bodies, so seven blocks are one four-block, one paired and one
// single-block call — and requires every block's accumulator bits to
// equal the looped kernel12x8's for that block.
func checkBlockRun(t testing.TB, rng *rand.Rand, nb, rows, s, str, vwEff, pitch int, special bool) {
	t.Helper()
	acc0, buf, tf0 := bodyOperands(rng, rows, s, str, vwEff, pitch, special)
	tf, tfOff, init := blockOperands(rng, nb, rows, s, str, vwEff, pitch, special, acc0, tf0)
	b := hostBodies(s, str)
	var acc accTile
	var spans []int
	for kb := 0; kb < nb; {
		n := b.span(kb, nb)
		spans = append(spans, n)
		copy(acc[:n], init[kb:kb+n])
		b.run(&acc, n, buf, tf[kb*tfOff:], tfOff, rows, vwEff, pitch)
		for j := 0; j < n; j++ {
			want := init[kb+j]
			kernel12x8(&want, buf, tf[(kb+j)*tfOff:], rows, s, str, vwEff, pitch)
			if lane, ok := sameAccBits(&acc[j], &want); !ok {
				t.Fatalf("%d blocks as %v: rows=%d S=%d str=%d vwEff=%d pitch=%d special=%v: block %d lane %d = %x, looped kernel12x8 stores %x",
					nb, spans, rows, s, str, vwEff, pitch, special, kb+j, lane,
					math.Float32bits(acc[j][lane/4][lane%4]), math.Float32bits(want[lane/4][lane%4]))
			}
		}
		kb += n
	}
	if hasPairBody && nb == 7 && fmt.Sprint(spans) != "[4 2 1]" {
		t.Fatalf("seven K-blocks ran as %v body calls, want [4 2 1]", spans)
	}
}

// pixelCase is one pointwise-body call: its input (channels, pitch),
// tile (pixels, output channels of the K-block, output row stride),
// whether it adds to what the output holds, which epilogue steps run and
// the operand mix.
type pixelCase struct {
	rows, pitch, npx, nk, stride int
	accumulate                   bool
	bias, affine, residual, relu bool
	special                      bool
}

func (c pixelCase) String() string {
	return fmt.Sprintf("rows=%d pitch=%d npx=%d nk=%d stride=%d accumulate=%v bias=%v affine=%v residual=%v relu=%v special=%v",
		c.rows, c.pitch, c.npx, c.nk, c.stride, c.accumulate, c.bias, c.affine, c.residual, c.relu, c.special)
}

// checkPixel runs the pointwise body and pixelTile — kernel12x8 from
// zeroed accumulators, then storeTile, per 12-pixel register tile — on
// the same operands and requires the same bits in every tile element,
// untouched sentinels everywhere else in the output (the pixels past npx
// and the channels past nk included), and untouched operands. The input
// ends at the last channel's last pixel and dst and res at the tile's
// last element, so the wrapper's extent proof is exercised at its edge;
// the K-block is channels 8..8+nk of 24.
func checkPixel(t testing.TB, rng *rand.Rand, c pixelCase) {
	t.Helper()
	val := operandValues(rng, c.special, float32(math.NaN()), -math.MaxFloat32)
	in := make([]float32, (c.rows-1)*c.pitch+c.npx)
	tf := make([]float32, c.rows*8)
	for i := range in {
		in[i] = val()
	}
	for i := range tf {
		tf[i] = val()
	}
	last := (c.nk-1)*c.stride + c.npx - 1
	inTile := func(j int) bool { return j >= 0 && j <= last && j%c.stride < c.npx }
	arena := func(fill bool) []float32 {
		a := make([]float32, storePad+last+1+storePad)
		for i := range a {
			a[i] = storeSentinel(i)
			if fill && inTile(i-storePad) {
				a[i] = val()
			}
		}
		return a
	}
	out0 := arena(c.accumulate)
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
	const kBase = storeKBase
	want := append([]float32(nil), out0...)
	pixelTile(tile(want), tile(res0), in, tf, ep, kBase, kBase+c.nk, c.rows, c.pitch, c.stride, c.npx, c.accumulate)
	for i, v := range want {
		if !inTile(i-storePad) && math.Float32bits(v) != math.Float32bits(out0[i]) {
			t.Fatalf("%v: pixelTile wrote element %d outside the tile", c, i-storePad)
		}
	}
	if !hasPairBody {
		return
	}
	got := append([]float32(nil), out0...)
	res := append([]float32(nil), res0...)
	inCopy, tfCopy := append([]float32(nil), in...), append([]float32(nil), tf...)
	vectorPixel(tile(got), tile(res), in, tf, ep, kBase, kBase+c.nk, c.rows, c.pitch, c.stride, c.npx, c.accumulate)
	for i := range got {
		j := i - storePad
		if inTile(j) {
			if !sameStoredBits(got[i], want[i]) {
				t.Fatalf("%v: tile element %d (channel %d, pixel %d) = %x, pixelTile stores %x",
					c, j, j/c.stride, j%c.stride, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		} else if math.Float32bits(got[i]) != math.Float32bits(out0[i]) {
			t.Fatalf("%v: the pointwise body wrote element %d outside the tile", c, j)
		}
	}
	for _, op := range []struct {
		name      string
		got, want []float32
	}{{"residual", res, res0}, {"input", in, inCopy}, {"filter", tf, tfCopy}} {
		for i := range op.got {
			if math.Float32bits(op.got[i]) != math.Float32bits(op.want[i]) {
				t.Fatalf("%v: the pointwise body wrote %s element %d", c, op.name, i)
			}
		}
	}
}

// TestBodyEquivalence is the one battery every implementation of the
// body answers to: the vector body and the looped kernel12x8 store the
// same accumulator bits, and each block of the paired and four-block
// bodies the vector body's, for every S, stride, tile width, ragged row
// count and row pitch, from non-zero accumulators, on ordinary and on
// denormal / signed-zero / infinite operands; and a tile of one to seven
// K-blocks, run through span and run as the consumers run it, stores
// the looped kernel's bits in every block for every tile width. The
// pointwise body stores pixelTile's bits for every pixel count of a tile
// and K-block width, over one, three and 21 channels, at a tight and a
// plane pitch and output stride, raw and accumulating.
func TestBodyEquivalence(t *testing.T) {
	if !hasPairBody {
		t.Log("no AVX-512F on this host: the multi-block and pointwise bodies are not checked")
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
				for nb := 1; nb <= 7; nb++ {
					checkBlockRun(t, rng, nb, 3, s, str, vwEff, wIn+5, nb%2 == 0)
				}
			}
		}
	}
	for npx := 1; npx <= pxTile; npx++ {
		for _, rows := range []int{1, 3, 21} {
			for _, pitch := range []int{npx, 196} {
				for _, special := range []bool{false, true} {
					checkPixel(t, rng, pixelCase{rows: rows, pitch: pitch, npx: npx, nk: 1 + (npx+rows)%8,
						stride: pitch + 3, accumulate: rows == 3, special: special})
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
	blockTF := append(append(append(append([]float32(nil), tf...), tf...), tf...), tf...)
	for _, impl := range multiImpls() {
		for _, bad := range []struct{ rows, vwEff, tfOff int }{{3, 0, len(tf)}, {3, 13, len(tf)}, {0, 12, len(tf)}, {3, 12, -8}} {
			got := accTile{acc0, acc0, acc0, acc0}
			impl.run(&got, buf, blockTF, bad.tfOff, bad.rows, 3, 1, bad.vwEff, 14)
			if got != (accTile{acc0, acc0, acc0, acc0}) {
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
	tf4 := append(append(append(append([]float32(nil), tf...), tf...), tf...), tf...)
	for name, call := range map[string]func(acc *accFile8){
		"short buf": func(acc *accFile8) { vector12x8(acc, buf[:len(buf)-1], tf, 4, 3, 2, 12, 25) },
		"short tf":  func(acc *accFile8) { vector12x8(acc, buf, tf[:len(tf)-1], 4, 3, 2, 12, 25) },
		"paired short buf": func(*accFile8) {
			vector12x16(&accTile{}, buf[:len(buf)-1], append(tf, tf...), len(tf), 4, 3, 2, 12, 25)
		},
		"paired short block 1": func(*accFile8) {
			vector12x16(&accTile{}, buf, append(tf, tf[1:]...), len(tf), 4, 3, 2, 12, 25)
		},
		"four-block short buf": func(*accFile8) {
			vector12x32(&accTile{}, buf[:len(buf)-1], tf4, len(tf), 4, 3, 2, 12, 25)
		},
		"four-block short block 3": func(*accFile8) {
			vector12x32(&accTile{}, buf, tf4[1:], len(tf), 4, 3, 2, 12, 25)
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

// FuzzVectorBody drives the same comparison — every block of the
// multi-block bodies included, and a tile of one to seven K-blocks
// through span and run (the count drawn from the seed) — from fuzzed
// extents and operand seeds: S 1–11 and stride 1–4, past every filter
// width and stride in the model tables; and the pointwise body over the
// same channel count and operand mix, its pixel count, K-block width,
// accumulate flag and epilogue steps drawn from the fuzzed values.
func FuzzVectorBody(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(11), uint8(8), uint8(0), false, int64(1))  // 3×3 s1, full tile
	f.Add(uint8(6), uint8(1), uint8(6), uint8(20), uint8(3), true, int64(2))   // 7×7 s2 stem, ragged tile
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(200), true, int64(3))  // 1×1, one column, plane pitch
	f.Add(uint8(10), uint8(3), uint8(4), uint8(33), uint8(7), false, int64(4)) // 11×11 s4, ragged tile
	f.Fuzz(func(t *testing.T, sRaw, strRaw, vwRaw, rowsRaw, extraPitch uint8, special bool, seed int64) {
		s := int(sRaw)%11 + 1
		str := int(strRaw)%4 + 1
		vwEff := int(vwRaw)%maxVw + 1
		rows := int(rowsRaw)%48 + 1
		pitch := (maxVw-1)*str + s + int(extraPitch)
		rng := rand.New(rand.NewSource(seed))
		checkBodies(t, rng, rows, s, str, vwEff, pitch, special)
		checkBlockRun(t, rng, int(uint64(seed)%7)+1, rows, s, str, vwEff, pitch, special)
		npx := int(vwRaw)%pxTile + 1
		flags := uint64(seed) >> 3
		checkPixel(t, rng, pixelCase{rows: rows, pitch: npx + int(extraPitch), npx: npx, nk: int(uint64(seed)%8) + 1,
			stride: npx + int(sRaw), accumulate: flags&1 != 0, bias: flags&2 != 0, affine: flags&4 != 0,
			residual: flags&8 != 0, relu: flags&16 != 0, special: special})
	})
}
