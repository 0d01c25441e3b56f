package core

import "ndirect/internal/conv"

// Depthwise micro-kernels (DESIGN.md §13). Depthwise convolution has
// no C reduction, so the standard micro-kernel's register allocation
// (Vw output columns × Vk output channels held while C·R·S taps
// accumulate) collapses: each output channel depends on exactly one
// input channel, and the only reuse left is spatial. The depthwise
// register tile therefore spends the vector on output columns — eight
// adjacent Q positions per YMM accumulator, the nine 3×3 taps broadcast
// into registers once per row range — the allocation of "Towards
// Effective Depthwise Convolutions on ARMv8".
//
// There are two bodies:
//
//	vectorDepthwise3x3 — the AVX2 body (dwkernel_amd64.s) of both
//	                     3×3 families, dw.r3s3.s1 and dw.r3s3.s2,
//	                     bound at init on a host with the vector body;
//	depthwisePlaneRange — the oracle below: every (R, S, stride) with no
//	                     depthwise family, the 3×3 families on a host
//	                     without AVX2, and a quarantined family, the way
//	                     the standard family falls back to kernel12x8.
//
// Bit-exactness contract: both visit a given output element's taps in
// the same order — r ascending, s ascending, acc = fma32(in, f, acc)
// from acc = +0, one rounding per tap (VFMADD231PS/SS in the body) —
// and skip an out-of-range tap instead of multiplying a zero, so a
// non-finite weight never reaches a padded output.

// depthwiseKernel computes the raw depthwise accumulation for output
// rows [h0, h1) of one (n, c) plane. in is the H×W input plane, filter
// the channel's R×S taps, dst a row-major [h1-h0][Q] destination whose
// first row corresponds to output row h0. Epilogues are applied by the
// caller in a separate in-cache sweep (store + reload of a float32 is
// value-preserving, so the sweep is bit-identical to applying the
// epilogue at store time).
type depthwiseKernel func(s conv.Shape, in, filter, dst []float32, h0, h1 int)

// depthwisePlaneRange is the generic depthwise row-range kernel and the
// family oracle: the vector body must match it bit for bit
// (VerifyKernelFamily enforces this on the live binary).
func depthwisePlaneRange(s conv.Shape, in, filter, dst []float32, h0, h1 int) {
	q := s.Q()
	for oh := h0; oh < h1; oh++ {
		ihBase := oh*s.Str - s.Pad
		drow := dst[(oh-h0)*q : (oh-h0)*q+q]
		for ow := range drow {
			iwBase := ow*s.Str - s.Pad
			var acc float32
			for r := 0; r < s.R; r++ {
				ih := ihBase + r
				if ih < 0 || ih >= s.H {
					continue
				}
				for ss := 0; ss < s.S; ss++ {
					iw := iwBase + ss
					if iw < 0 || iw >= s.W {
						continue
					}
					acc = fma32(in[ih*s.W+iw], filter[r*s.S+ss], acc)
				}
			}
			drow[ow] = acc
		}
	}
}

// dwVectorColumns returns the output columns [lo, hi) of a 3×3 plane
// whose three taps all read inside the input row — the range the vector
// body covers in 8-wide blocks — or lo = hi = Q when it holds fewer than
// eight. The columns before lo and from hi on are the halo.
func dwVectorColumns(s conv.Shape) (lo, hi int) {
	lo = (s.Pad + s.Str - 1) / s.Str // first ow with ow·str − pad ≥ 0
	if last := s.W - 3 + s.Pad; last >= 0 {
		hi = last/s.Str + 1 // one past the last ow with ow·str − pad + 2 < W
	}
	if hi-lo < 8 {
		return s.Q(), s.Q()
	}
	return lo, hi
}
