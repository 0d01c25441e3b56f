package core

import (
	"fmt"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/simd"
)

// kernel12x8S3 is the fully specialised main micro-kernel for the
// paper's working example — 3×3 kernel, stride 1, V_w=12, V_k=8 —
// with the S loop unrolled exactly as Algorithm 3 lines 5–14: all
// six filter vectors of a (cv, r) pair are hoisted into registers
// and each packed input element feeds six FMAs before the next load.
// This is the Go counterpart of the paper's hand-written NEON body. It
// lives here, beside the one benchmark that measures it, because no
// plan selects it: the form needs the full 32-vector register file and
// measures ~1.8× slower than the looped kernel12x8 on 16-register hosts.
func kernel12x8S3(acc *accFile8, buf, tf []float32, tc, r, vwEff, wIn int) {
	if vwEff <= 0 || vwEff > maxVw {
		return
	}
	a := acc[:2*vwEff]
	for cv := 0; cv < tc; cv++ {
		for rr := 0; rr < r; rr++ {
			row := buf[(cv*r+rr)*wIn : (cv*r+rr)*wIn+wIn]
			fb := (cv*r + rr) * 24
			fs := tf[fb : fb+24]
			f0 := simd.Load(fs)
			f1 := simd.Load(fs[4:])
			f2 := simd.Load(fs[8:])
			f3 := simd.Load(fs[12:])
			f4 := simd.Load(fs[16:])
			f5 := simd.Load(fs[20:])
			// The stride-1 input window shrinks one element per column,
			// so a single length test replaces three per-load checks,
			// and the i < len(a) condition discharges the a[i] accesses.
			// Per -d=ssa/check_bce this leaves exactly one residual
			// check per column (the a[i-1] lower bound, which prove
			// cannot derive from a step-2 induction) — down from five —
			// while keeping the forward walk the ascending input window
			// requires.
			rw := row
			for i := 1; i < len(a); i += 2 {
				if len(rw) < 3 {
					break
				}
				x0 := rw[0]
				x1 := rw[1]
				x2 := rw[2]
				a0 := a[i-1]
				a1 := a[i]
				a0 = fmaLanes(a0, f0, x0)
				a1 = fmaLanes(a1, f1, x0)
				a0 = fmaLanes(a0, f2, x1)
				a1 = fmaLanes(a1, f3, x1)
				a0 = fmaLanes(a0, f4, x2)
				a1 = fmaLanes(a1, f5, x2)
				a[i-1] = a0
				a[i] = a1
				rw = rw[1:]
			}
		}
	}
}

// microKernelOperands is one (tc=32, R=3, S=3) register-tile update's
// packed input and transformed filter.
func microKernelOperands() (buf, tf []float32, wIn int) {
	const tc, r, s, vw, vk, str = 32, 3, 3, 12, 8, 1
	wIn = (vw-1)*str + s
	buf = make([]float32, tc*r*wIn)
	tf = make([]float32, tc*r*s*vk)
	for i := range buf {
		buf[i] = float32(i%17) * 0.25
	}
	for i := range tf {
		tf[i] = float32(i%13) * 0.5
	}
	return buf, tf, wIn
}

// TestUnrolledS3BitIdenticalToLooped keeps the transcription honest:
// the benchmark below compares like with like only if the unrolled body
// stores exactly the looped kernel's bits, full and ragged tile alike.
func TestUnrolledS3BitIdenticalToLooped(t *testing.T) {
	buf, tf, wIn := microKernelOperands()
	for _, vwEff := range []int{12, 7, 1} {
		var looped, unrolled accFile8
		kernel12x8(&looped, buf, tf, 32*3, 3, 1, vwEff, wIn)
		kernel12x8S3(&unrolled, buf, tf, 32, 3, vwEff, wIn)
		if looped != unrolled {
			t.Fatalf("vwEff=%d: kernel12x8S3 differs from kernel12x8", vwEff)
		}
	}
}

// Direct micro-kernel A/B: one (tc=32, R=3, S=3) register-tile update
// per iteration, no loop-nest overhead — two K-blocks' worth for the
// paired avx512 body and four for avx512x4, which do twice and four
// times the flops per call — then the pointwise body against the
// four-block body and its stores on two 1×1 shapes.
func BenchmarkMicroKernelBodies(b *testing.B) {
	const tc, r, s, vw, vk, str = 32, 3, 3, 12, 8, 1
	buf, tf, wIn := microKernelOperands()
	blockTF := append(append(append(append([]float32(nil), tf...), tf...), tf...), tf...)
	flops := float64(2 * tc * r * s * vw * vk)

	for _, body := range []struct {
		name   string
		blocks int
		run    func(acc *accTile)
	}{
		{"looped12x8", 1, func(acc *accTile) { kernel12x8(&acc[0], buf, tf, tc*r, s, str, vw, wIn) }},
		{"vector", 1, func(acc *accTile) { vector12x8(&acc[0], buf, tf, tc*r, s, str, vw, wIn) }},
		{"avx512", 2, func(acc *accTile) { vector12x16(acc, buf, blockTF, len(tf), tc*r, s, str, vw, wIn) }},
		{"avx512x4", 4, func(acc *accTile) { vector12x32(acc, buf, blockTF, len(tf), tc*r, s, str, vw, wIn) }},
		{"unrolledS3", 1, func(acc *accTile) { kernel12x8S3(&acc[0], buf, tf, tc, r, vw, wIn) }},
	} {
		b.Run(body.name, func(b *testing.B) {
			if body.name == "vector" && !hasVectorBody {
				b.Skip("no vector body on this host")
			}
			if body.blocks > 1 && !hasPairBody {
				b.Skip("no AVX-512F on this host")
			}
			var acc accTile
			for i := 0; i < b.N; i++ {
				body.run(&acc)
			}
			b.ReportMetric(float64(body.blocks)*flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			sinkV = acc[0][0]
		})
	}

	// Pointwise A/B on the L06 (C=64, 56×56) and L30 (C=32, 112×112) 1×1
	// shapes: one 32-channel × 48-pixel output block per iteration, read
	// in place from the input planes and stored into the output planes,
	// each way a 1×1 plan runs it — the pointwise body as four K-block
	// calls that store from registers, or the four-block body as four
	// 12-pixel register tiles, each cleared, run and stored by the vector
	// store as four transposed 12×8 tiles.
	for _, l := range []struct {
		name string
		c, p int
	}{{"L06", 64, 56}, {"L30", 32, 112}} {
		pq := l.p * l.p
		in, out := make([]float32, l.c*pq), make([]float32, 32*pq)
		tf := make([]float32, 4*l.c*8) // [4][C][8]
		fillProbe(in, 1)
		fillProbe(tf, 2)
		flops := float64(2 * l.c * 32 * pxTile)
		for _, body := range []struct {
			name string
			run  func(acc *accTile)
		}{
			{"pixel", func(*accTile) {
				for kb := 0; kb < 4; kb++ {
					vectorPixel(out[kb*8*pq:], nil, in, tf[kb*l.c*8:], nil, kb*8, kb*8+8, l.c, pq, pq, pxTile, false)
				}
			}},
			{"avx512x4+store", func(acc *accTile) {
				for x := 0; x < pxTile; x += maxVw {
					clear(acc[:])
					vector12x32(acc, in[x:], tf, l.c*8, l.c, 1, 1, maxVw, pq)
					for j := range acc {
						vectorStore(&acc[j], out[j*8*pq+x:], nil, nil, j*8, pq, maxVw, true, false)
					}
				}
			}},
		} {
			b.Run(l.name+"/"+body.name, func(b *testing.B) {
				if !hasPairBody {
					b.Skip("no AVX-512F on this host")
				}
				var acc accTile
				for i := 0; i < b.N; i++ {
					body.run(&acc)
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
				sinkV[0] = out[0]
			})
		}
	}
}

var sinkV simd.Vec4

// Direct tile-store A/B: one full 12×8 tile per iteration, the Go store
// against the vector store, both layouts, raw (a first channel tile) and
// with the whole epilogue on a later one (accumulate, bias, affine,
// residual, ReLU). The output is a 56×56 plane with 64 channels.
func BenchmarkStoreTile(b *testing.B) {
	const pq, k = 56 * 56, 64
	out, res := make([]float32, k*pq), make([]float32, k*pq)
	full := &epilogue{bias: make([]float32, k), scale: make([]float32, k), shift: make([]float32, k), residual: true, relu: true}
	for i := range res {
		res[i] = float32(i%11) - 5
	}
	for i := 0; i < k; i++ {
		full.bias[i], full.scale[i], full.shift[i] = float32(i%3), 1+float32(i%5)/8, -float32(i%7)
	}
	var acc accFile8
	for i := range acc {
		acc[i] = simd.Vec4{float32(i), -1, 0.5, 2}
	}
	for _, layout := range []struct {
		name   string
		nchw   bool
		stride int
	}{{"NCHW", true, pq}, {"NHWC", false, k}} {
		for _, form := range []struct {
			name       string
			ep         *epilogue
			accumulate bool
		}{{"raw", nil, false}, {"epilogue", full, true}} {
			for _, store := range []struct {
				name string
				run  tileStore
			}{
				{"go", func(acc *accFile8, dst, res []float32, ep *epilogue, kBase, stride, vwEff int, nchw, accumulate bool) {
					storeTile(acc, dst, res, ep, kBase, kBase+8, stride, vwEff, nchw, accumulate)
				}},
				{"vector", vectorStore},
			} {
				b.Run(layout.name+"/"+form.name+"/"+store.name, func(b *testing.B) {
					if store.name == "vector" && !hasVectorBody {
						b.Skip("no vector store on this host")
					}
					for i := 0; i < b.N; i++ {
						store.run(&acc, out, res, form.ep, 8, layout.stride, maxVw, layout.nchw, form.accumulate)
					}
					sinkV[0] = out[0]
				})
			}
		}
	}
}

// Direct depthwise-body A/B: one whole plane of MobileNet rows 29
// (112×112, stride 1) and 31 (56×56, stride 2) per iteration, the
// oracle against the vector body.
func BenchmarkDepthwiseBodies(b *testing.B) {
	for _, s := range []conv.Shape{
		{N: 1, C: 1, H: 112, W: 112, K: 1, R: 3, S: 3, Str: 1, Pad: 1},
		{N: 1, C: 1, H: 56, W: 56, K: 1, R: 3, S: 3, Str: 2, Pad: 1},
	} {
		in, filter, out := make([]float32, s.H*s.W), make([]float32, 9), make([]float32, s.P()*s.Q())
		fillProbe(in, 1)
		fillProbe(filter, 2)
		flops := float64(2 * 9 * s.P() * s.Q())
		for _, body := range []struct {
			name string
			run  depthwiseKernel
		}{{"oracle", depthwisePlaneRange}, {"vector", vectorDepthwise3x3}} {
			b.Run(fmt.Sprintf("%dx%d.s%d/%s", s.H, s.W, s.Str, body.name), func(b *testing.B) {
				if body.name == "vector" && !hasVectorBody {
					b.Skip("no vector body on this host")
				}
				for i := 0; i < b.N; i++ {
					body.run(s, in, filter, out, 0, s.P())
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
	}
}
