package core

import "ndirect/internal/simd"

// Constant-folded main micro-kernel bodies, the portable Go side of the
// dispatch table's standard families (dispatch.go). Each body is
// kernel12x8 with one (S, stride) pair's constants substituted — a
// body walks rows = tc·R (cv, r) coordinates, so R never appears in it:
// the filter offsets become compile-time products, the stride-indexed
// input walk becomes a constant-step induction the prove pass can
// reason about, and the S loop bounds are literals. The floating-point
// work is untouched — per accumulator, the FMA sequence (row ascending,
// s ascending, the same f0/f1 vectors and input scalars) is exactly
// kernel12x8's, so a specialized plan's output is bit-identical to the
// looped kernel's on the same operands.
//
// On an AVX2 host the families bind the vector body instead
// (kernel_amd64.s) and these run only where a test calls them directly.
//
// The bodies deliberately stay in the *looped-S* register discipline
// (two filter vectors live at a time) rather than the fully S-unrolled
// Algorithm 3 form: that transcription needs the full 32-vector
// register file and spills on 16-register SIMD hosts (it is kept in
// kernel_bench_test.go, 1.8× slower in BenchmarkMicroKernelBodies),
// while these bodies win on constant folding alone without growing the
// live set.

// kernel12x8S3s1 is kernel12x8 specialised to S=3, stride 1 — the
// dominant ResNet/VGG body family (Table 4 IDs 3, 10, 16, 21, 24–28).
func kernel12x8S3s1(acc *accFile8, buf, tf []float32, rows, vwEff, pitch int) {
	if vwEff <= 0 || vwEff > maxVw {
		return
	}
	a := acc[:2*vwEff]
	for row := 0; row < rows; row++ {
		in := buf[row*pitch:]
		fTap := tf[row*24:]
		for ss := 0; ss < 3; ss++ {
			fs := fTap[ss*8 : ss*8+8]
			f0 := simd.Load(fs)
			f1 := simd.Load(fs[4:])
			r := in[ss:]
			x := vwEff - 1
			for i := len(a) - 1; i > 0; i -= 2 {
				v := r[x]
				a[i-1] = a[i-1].FMAScalar(f0, v)
				a[i] = a[i].FMAScalar(f1, v)
				x--
			}
		}
	}
}

// kernel12x8S3s2 is kernel12x8 specialised to S=3, stride 2 (the
// downsampling 3×3 layers: Table 4 IDs 2, 9, 15).
func kernel12x8S3s2(acc *accFile8, buf, tf []float32, rows, vwEff, pitch int) {
	if vwEff <= 0 || vwEff > maxVw {
		return
	}
	a := acc[:2*vwEff]
	for row := 0; row < rows; row++ {
		in := buf[row*pitch:]
		fTap := tf[row*24:]
		for ss := 0; ss < 3; ss++ {
			fs := fTap[ss*8 : ss*8+8]
			f0 := simd.Load(fs)
			f1 := simd.Load(fs[4:])
			r := in[ss:]
			x := (vwEff - 1) * 2
			for i := len(a) - 1; i > 0; i -= 2 {
				v := r[x]
				a[i-1] = a[i-1].FMAScalar(f0, v)
				a[i] = a[i].FMAScalar(f1, v)
				x -= 2
			}
		}
	}
}

// kernel12x8S1s1 is kernel12x8 specialised to S=1, stride 1 — the
// pointwise family (Table 4 IDs 5–8, 12–14, 18–20, 22–23) and the fused
// separable pointwise stage, which reads the depthwise intermediate in
// place with pitch = one channel plane.
func kernel12x8S1s1(acc *accFile8, buf, tf []float32, rows, vwEff, pitch int) {
	if vwEff <= 0 || vwEff > maxVw {
		return
	}
	a := acc[:2*vwEff]
	for row := 0; row < rows; row++ {
		in := buf[row*pitch:]
		fs := tf[row*8 : row*8+8]
		f0 := simd.Load(fs)
		f1 := simd.Load(fs[4:])
		x := vwEff - 1
		for i := len(a) - 1; i > 0; i -= 2 {
			v := in[x]
			a[i-1] = a[i-1].FMAScalar(f0, v)
			a[i] = a[i].FMAScalar(f1, v)
			x--
		}
	}
}

// kernel12x8S1s2 is kernel12x8 specialised to S=1, stride 2 (the
// strided projection shortcuts: Table 4 IDs 4, 11, 17).
func kernel12x8S1s2(acc *accFile8, buf, tf []float32, rows, vwEff, pitch int) {
	if vwEff <= 0 || vwEff > maxVw {
		return
	}
	a := acc[:2*vwEff]
	for row := 0; row < rows; row++ {
		in := buf[row*pitch:]
		fs := tf[row*8 : row*8+8]
		f0 := simd.Load(fs)
		f1 := simd.Load(fs[4:])
		x := (vwEff - 1) * 2
		for i := len(a) - 1; i > 0; i -= 2 {
			v := in[x]
			a[i-1] = a[i-1].FMAScalar(f0, v)
			a[i] = a[i].FMAScalar(f1, v)
			x -= 2
		}
	}
}

// kernel12x8S7s2 is kernel12x8 specialised to S=7, stride 2 — the
// ResNet stem (Table 4 ID 1).
func kernel12x8S7s2(acc *accFile8, buf, tf []float32, rows, vwEff, pitch int) {
	if vwEff <= 0 || vwEff > maxVw {
		return
	}
	a := acc[:2*vwEff]
	for row := 0; row < rows; row++ {
		in := buf[row*pitch:]
		fTap := tf[row*56:]
		for ss := 0; ss < 7; ss++ {
			fs := fTap[ss*8 : ss*8+8]
			f0 := simd.Load(fs)
			f1 := simd.Load(fs[4:])
			r := in[ss:]
			x := (vwEff - 1) * 2
			for i := len(a) - 1; i > 0; i -= 2 {
				v := r[x]
				a[i-1] = a[i-1].FMAScalar(f0, v)
				a[i] = a[i].FMAScalar(f1, v)
				x -= 2
			}
		}
	}
}
