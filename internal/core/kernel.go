package core

import "ndirect/internal/simd"

// Main micro-kernel (Algorithm 3). One invocation computes the
// register tile O[kv:kv+Vk][oh][qt0:qt0+vwEff] contribution of the
// channel tile [ct, ct+tc):
//
//	for cv, r:   load the packed input row        (V2–V5)
//	  for s:     load the filter vector slice     (V0–V1)
//	             FMA each input scalar against it (V8–V31)
//
// The outer-product form — one input scalar broadcast against a V_k
// filter vector — is what gives nDirect its higher FAI than the
// GEMM-style inner-product kernels of LIBXSMM (§5.2): each loaded
// filter vector is reused V_w times and each input element S·V_k/4
// times before leaving the registers.

// maxVw bounds the specialised kernel's accumulator file: 12 output
// columns × 8 output channels = 24 Vec4 accumulators, the Equation 3
// optimum.
const maxVw = 12

// accFile8 is the register tile for the V_k=8 kernels: acc[2*ow] and
// acc[2*ow+1] hold output channels kv..kv+3 and kv+4..kv+7 of output
// column ow.
type accFile8 = [2 * maxVw]simd.Vec4

// kernel12x8 is the looped main micro-kernel for the V_k=8 register
// file (any S, stride): the portable fallback every other body must
// match bit for bit. rows = tc·R (cv, r) coordinates are walked in
// order; row i of the input starts at buf[i*pitch] (the packed buffer's
// [tc][R][wIn] rows, or the separable intermediate's channel planes) and
// its S filter vectors at tf[i*s*8] (the transformed [tc][R][S][8]
// block).
//
// The accumulator loop runs descending — i from len(a)-1 while i > 0,
// accessing a[i-1] and a[i] — because the i > 0 condition is exactly
// the lower-bound fact the prove pass needs to drop both per-FMA
// accumulator bounds checks while keeping indexed addressing
// (verified with -d=ssa/check_bce; an ascending loop leaves the
// a[i-1]/a[i+1] partner access checked, since prove does not carry a
// start-value minimum through a step-2 induction). Pair order does
// not affect results: each accumulator pair is touched once per tap.
// Only the stride-indexed input load keeps its check, since the step
// is a runtime value the pass cannot bound.
func kernel12x8(acc *accFile8, buf, tf []float32, rows, s, str, vwEff, pitch int) {
	if vwEff <= 0 || vwEff > maxVw {
		return
	}
	a := acc[:2*vwEff]
	for row := 0; row < rows; row++ {
		in := buf[row*pitch:]
		fTap := tf[row*s*8:]
		for ss := 0; ss < s; ss++ {
			fs := fTap[ss*8 : ss*8+8]
			f0 := simd.Load(fs)
			f1 := simd.Load(fs[4:])
			r := in[ss:]
			x := (vwEff - 1) * str
			for i := len(a) - 1; i > 0; i -= 2 {
				v := r[x]
				a[i-1] = a[i-1].FMAScalar(f0, v)
				a[i] = a[i].FMAScalar(f1, v)
				x -= str
			}
		}
	}
}

// fusedPackRows is how many packed rows the fused first block hands the
// body per call: enough to amortise the call and the accumulator
// load/store of a vector body, few enough that the rows are consumed
// while the stores that wrote them are still in flight.
const fusedPackRows = 16

// packCompute fuses the packing micro-kernel with the first V_k-block
// computation (§5.3): the channel tile is packed a few channels at a
// time and each group is consumed by the execution's body as soon as it
// is stored, hiding the packing stores behind the compute — the analogue
// of placing st instructions between FMAs for the out-of-order core to
// overlap. Rows outside the image are cleared in the buffer (later
// V_k blocks read them) but never reach the body: a tile that has any
// runs the body once per channel, over that channel's in-image rows.
func (p *Plan) packCompute(kern specializedKernel, acc *accFile8, in, buf, tf []float32, g packGeometry,
	n, ct, tc, vwEff int, nchw bool) {
	s := p.Shape
	r := s.R
	rLo := min(max(-g.ihBase, 0), r) // in-image rows of every channel: [rLo, rHi)
	rHi := max(min(s.H-g.ihBase, r), rLo)
	group := 1
	if rHi-rLo == r {
		group = max(fusedPackRows/r, 1)
	}
	pack := packNHWC
	if nchw {
		pack = packNCHW
	}
	for cv := 0; cv < tc; cv += group {
		nc := min(group, tc-cv)
		pack(in, buf[cv*r*g.wIn:], g, n, s.C, s.H, s.W, ct+cv, nc, r)
		if rHi > rLo {
			kern(acc, buf[(cv*r+rLo)*g.wIn:], tf[(cv*r+rLo)*s.S*8:], (nc-1)*r+rHi-rLo, vwEff, g.wIn)
		}
	}
}
