package core

import (
	"ndirect/internal/conv"
	"ndirect/internal/simd"
)

// Register-tiled depthwise micro-kernels (DESIGN.md §13). Depthwise
// convolution has no C reduction, so the standard micro-kernel's
// register allocation (Vw output columns × Vk output channels held
// while C·R·S taps accumulate) collapses: each output channel depends
// on exactly one input channel, and the only reuse left is spatial.
// The depthwise register tile therefore spends the whole file on
// output columns — a Vec4 of adjacent Q positions per accumulator,
// the nine 3×3 filter taps hoisted into scalars — the FAI-style
// allocation of "Towards Effective Depthwise Convolutions on ARMv8".
//
// Two specialised variants sit in the kernel-family table alongside the
// standard families (dispatch.go):
//
//	dw.r3s3.s1 — 3×3 stride 1: unguarded 4-wide vector loads over the
//	             interior, guarded scalar edges.
//	dw.r3s3.s2 — 3×3 stride 2: 4-wide gathered lanes (the Vec4 model
//	             of an LD2 de-interleaving load), guarded edges.
//
// Like the standard families they are bound by (R, S, stride) at plan
// construction and share the quarantine flag and VerifyKernelFamily
// golden probes, with depthwisePlane (the pre-plan scalar loop) as the
// bit-exact oracle and quarantine fallback.
//
// Bit-exactness contract: every variant visits a given output
// element's taps in exactly depthwisePlane's order — r ascending, s
// ascending, acc = acc + in·f with each float32 op individually
// rounded — and out-of-range taps contribute a literal zero operand
// (+0 + (±0) = +0 and the accumulator can never round to -0.0, so a
// zero-filled halo lane is bit-identical to skipping the tap for
// finite operands, the same argument depthwisePlane's own stride-1
// halo path already relies on).

// depthwiseKernel computes the raw depthwise accumulation for output
// rows [h0, h1) of one (n, c) plane. in is the H×W input plane, filter
// the channel's R×S taps, dst a row-major [h1-h0][Q] destination whose
// first row corresponds to output row h0. Epilogues are applied by the
// caller in a separate in-cache sweep (store + reload of a float32 is
// value-preserving, so the sweep is bit-identical to applying the
// epilogue at store time).
type depthwiseKernel func(s conv.Shape, in, filter, dst []float32, h0, h1 int)

// depthwisePlaneRange is the generic depthwise row-range kernel — the
// body of the original depthwisePlane parameterised over the output
// row range. It is the family oracle: the specialised variants below
// must match it bit for bit (VerifyKernelFamily enforces this on the
// live binary).
func depthwisePlaneRange(s conv.Shape, in, filter, dst []float32, h0, h1 int) {
	q := s.Q()
	for oh := h0; oh < h1; oh++ {
		ihBase := oh*s.Str - s.Pad
		drow := dst[(oh-h0)*q : (oh-h0)*q+q]
		ow := 0
		if s.Str == 1 {
			for ; ow+simd.Width <= q; ow += simd.Width {
				iwBase := ow - s.Pad
				acc := simd.Zero()
				for r := 0; r < s.R; r++ {
					ih := ihBase + r
					if ih < 0 || ih >= s.H {
						continue
					}
					row := in[ih*s.W : (ih+1)*s.W]
					for ss := 0; ss < s.S; ss++ {
						iw := iwBase + ss
						f := filter[r*s.S+ss]
						// All four lanes in range: vector load.
						if iw >= 0 && iw+simd.Width <= s.W {
							acc = acc.FMAScalar(simd.Load(row[iw:]), f)
							continue
						}
						// Halo: per-lane guard.
						var v simd.Vec4
						for lane := 0; lane < simd.Width; lane++ {
							if x := iw + lane; x >= 0 && x < s.W {
								v[lane] = row[x]
							}
						}
						acc = acc.FMAScalar(v, f)
					}
				}
				acc.Store(drow[ow:])
			}
		}
		for ; ow < q; ow++ {
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
					acc += in[ih*s.W+iw] * filter[r*s.S+ss]
				}
			}
			drow[ow] = acc
		}
	}
}

// dwRowEdge3x3 computes one output row whose 3-tap input row window is
// not fully inside [0, H): the fully guarded scalar body, R=S=3
// folded. Shared by both specialised variants (the stride is read from
// the shape, so the tap order matches either oracle path).
func dwRowEdge3x3(s conv.Shape, in, filter, drow []float32, ihBase int) {
	q := s.Q()
	for ow := 0; ow < q; ow++ {
		iwBase := ow*s.Str - s.Pad
		var acc float32
		for r := 0; r < 3; r++ {
			ih := ihBase + r
			if ih < 0 || ih >= s.H {
				continue
			}
			base := ih * s.W
			for ss := 0; ss < 3; ss++ {
				iw := iwBase + ss
				if iw < 0 || iw >= s.W {
					continue
				}
				acc += in[base+iw] * filter[r*3+ss]
			}
		}
		drow[ow] = acc
	}
}

// dwKernel3x3s1 is the 3×3 stride-1 depthwise variant: rows whose
// three input rows are all in range take an unguarded interior fast
// path — three full-width vector loads per row, nine hoisted filter
// scalars, no bounds tests inside the tap loop — with guarded scalar
// columns at the left/right halo and dwRowEdge3x3 for top/bottom
// rows.
func dwKernel3x3s1(s conv.Shape, in, filter, dst []float32, h0, h1 int) {
	q := s.Q()
	w, h, pad := s.W, s.H, s.Pad
	f00, f01, f02 := filter[0], filter[1], filter[2]
	f10, f11, f12 := filter[3], filter[4], filter[5]
	f20, f21, f22 := filter[6], filter[7], filter[8]
	// Last interior column block start: every tap iwBase+ss (ss ≤ 2)
	// must admit a 4-wide load, i.e. iwBase+2+4 ≤ W.
	owHi := w + pad - 6
	for oh := h0; oh < h1; oh++ {
		ihBase := oh - pad
		drow := dst[(oh-h0)*q : (oh-h0)*q+q]
		if ihBase < 0 || ihBase+3 > h {
			dwRowEdge3x3(s, in, filter, drow, ihBase)
			continue
		}
		r0 := in[ihBase*w : ihBase*w+w]
		r1 := in[(ihBase+1)*w : (ihBase+1)*w+w]
		r2 := in[(ihBase+2)*w : (ihBase+2)*w+w]
		ow := 0
		// Left halo: guarded scalars until iwBase ≥ 0 (ow ≥ pad).
		for ; ow < pad && ow < q; ow++ {
			drow[ow] = dwTap3x3s1(r0, r1, r2, filter, ow-pad, w)
		}
		// Interior: unguarded vector blocks.
		for ; ow+simd.Width <= q && ow <= owHi; ow += simd.Width {
			iw := ow - pad
			acc := simd.Zero()
			acc = acc.FMAScalar(simd.Load(r0[iw:]), f00)
			acc = acc.FMAScalar(simd.Load(r0[iw+1:]), f01)
			acc = acc.FMAScalar(simd.Load(r0[iw+2:]), f02)
			acc = acc.FMAScalar(simd.Load(r1[iw:]), f10)
			acc = acc.FMAScalar(simd.Load(r1[iw+1:]), f11)
			acc = acc.FMAScalar(simd.Load(r1[iw+2:]), f12)
			acc = acc.FMAScalar(simd.Load(r2[iw:]), f20)
			acc = acc.FMAScalar(simd.Load(r2[iw+1:]), f21)
			acc = acc.FMAScalar(simd.Load(r2[iw+2:]), f22)
			acc.Store(drow[ow:])
		}
		// Right halo + ragged tail: guarded scalars.
		for ; ow < q; ow++ {
			drow[ow] = dwTap3x3s1(r0, r1, r2, filter, ow-pad, w)
		}
	}
}

// dwTap3x3s1 is the guarded scalar 3×3 tap sum for one output column
// of a fully interior row (stride 1), iwBase = ow−pad.
func dwTap3x3s1(r0, r1, r2, filter []float32, iwBase, w int) float32 {
	var acc float32
	for ss := 0; ss < 3; ss++ {
		if iw := iwBase + ss; iw >= 0 && iw < w {
			acc += r0[iw] * filter[ss]
		}
	}
	for ss := 0; ss < 3; ss++ {
		if iw := iwBase + ss; iw >= 0 && iw < w {
			acc += r1[iw] * filter[3+ss]
		}
	}
	for ss := 0; ss < 3; ss++ {
		if iw := iwBase + ss; iw >= 0 && iw < w {
			acc += r2[iw] * filter[6+ss]
		}
	}
	return acc
}

// dwKernel3x3s2 is the 3×3 stride-2 depthwise variant. Four output
// columns map to input columns iwBase, iwBase+2, iwBase+4, iwBase+6;
// the interior fast path gathers those strided lanes into a Vec4 (the
// register model of an LD2 de-interleaving load) and runs the same
// nine-tap FMA sequence as the stride-1 variant. Edges are guarded
// scalars; top/bottom rows fall to dwRowEdge3x3.
func dwKernel3x3s2(s conv.Shape, in, filter, dst []float32, h0, h1 int) {
	q := s.Q()
	w, h, pad := s.W, s.H, s.Pad
	f00, f01, f02 := filter[0], filter[1], filter[2]
	f10, f11, f12 := filter[3], filter[4], filter[5]
	f20, f21, f22 := filter[6], filter[7], filter[8]
	for oh := h0; oh < h1; oh++ {
		ihBase := oh*2 - pad
		drow := dst[(oh-h0)*q : (oh-h0)*q+q]
		if ihBase < 0 || ihBase+3 > h {
			dwRowEdge3x3(s, in, filter, drow, ihBase)
			continue
		}
		r0 := in[ihBase*w : ihBase*w+w]
		r1 := in[(ihBase+1)*w : (ihBase+1)*w+w]
		r2 := in[(ihBase+2)*w : (ihBase+2)*w+w]
		ow := 0
		for ; ow*2 < pad && ow < q; ow++ {
			drow[ow] = dwTap3x3s2(r0, r1, r2, filter, ow*2-pad, w)
		}
		// Interior: the last tap of the last lane is iwBase+6+2; every
		// tap in range needs iwBase ≥ 0 and iwBase+8 < W.
		for ; ow+simd.Width <= q && ow*2-pad+8 < w; ow += simd.Width {
			iw := ow*2 - pad
			acc := simd.Zero()
			acc = acc.FMAScalar(dwGather2(r0, iw), f00)
			acc = acc.FMAScalar(dwGather2(r0, iw+1), f01)
			acc = acc.FMAScalar(dwGather2(r0, iw+2), f02)
			acc = acc.FMAScalar(dwGather2(r1, iw), f10)
			acc = acc.FMAScalar(dwGather2(r1, iw+1), f11)
			acc = acc.FMAScalar(dwGather2(r1, iw+2), f12)
			acc = acc.FMAScalar(dwGather2(r2, iw), f20)
			acc = acc.FMAScalar(dwGather2(r2, iw+1), f21)
			acc = acc.FMAScalar(dwGather2(r2, iw+2), f22)
			acc.Store(drow[ow:])
		}
		for ; ow < q; ow++ {
			drow[ow] = dwTap3x3s2(r0, r1, r2, filter, ow*2-pad, w)
		}
	}
}

// dwGather2 loads four stride-2 lanes starting at row[i] (i .. i+6).
func dwGather2(row []float32, i int) simd.Vec4 {
	return simd.Vec4{row[i], row[i+2], row[i+4], row[i+6]}
}

// dwTap3x3s2 is the guarded scalar 3×3 tap sum for one output column
// of a fully interior row (stride 2), iwBase = 2·ow−pad.
func dwTap3x3s2(r0, r1, r2, filter []float32, iwBase, w int) float32 {
	var acc float32
	for ss := 0; ss < 3; ss++ {
		if iw := iwBase + ss; iw >= 0 && iw < w {
			acc += r0[iw] * filter[ss]
		}
	}
	for ss := 0; ss < 3; ss++ {
		if iw := iwBase + ss; iw >= 0 && iw < w {
			acc += r1[iw] * filter[3+ss]
		}
	}
	for ss := 0; ss < 3; ss++ {
		if iw := iwBase + ss; iw >= 0 && iw < w {
			acc += r2[iw] * filter[6+ss]
		}
	}
	return acc
}
