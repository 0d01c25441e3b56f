package core

import "ndirect/internal/simd"

// The tile store: the accumulator file of one register tile goes to the
// output tensor, assigned on the first input-channel tile and added to
// what earlier tiles left otherwise, with the plan's fused epilogue on
// the last one. Per element, in this order and in float32:
//
//	v = acc (+ out)                 accumulate
//	v += bias[k]                    bias
//	v = v·scale[k]; v += shift[k]   affine — two roundings, never fused
//	v += res                        residual operand
//	if v < 0 { v = 0 }              ReLU — NaN and −0 pass through
//
// each step gated on its own flag, never a degenerate scale-by-one or
// add-zero, so untouched values pass through bit-identically. storeTile
// is that definition; the vector store (store_amd64.s), bound through the
// kernel-family table like the micro-kernel body, must match it bit for
// bit.

// tileOperands slices the output and the residual operand at the tile
// that starts at channel kBase, row oh, column qt0 of image n, with the
// stride a tileStore walks them by, and picks the epilogue its store
// applies: the plan's on the last channel tile, nil before it or when
// the plan has none.
func (p *Plan) tileOperands(out, res []float32, nchw bool, n, kBase, oh, qt0 int, lastC bool) (dst, resT []float32, ep *epilogue, stride int) {
	s := p.Shape
	pp, q := s.P(), s.Q()
	base, stride := ((n*pp+oh)*q+qt0)*s.K+kBase, s.K
	if nchw {
		base, stride = ((n*s.K+kBase)*pp+oh)*q+qt0, pp*q
	}
	if lastC && !p.ep.none {
		ep = &p.ep
		if ep.residual {
			resT = res[base:]
		}
	}
	return out[base:], resT, ep, stride
}

// store writes the V_k=8 accumulator file into the output tensor: with
// vst, the execution's vector store (Plan.body), for every full K-block,
// with the Go store for a ragged one or when vst is nil.
func (p *Plan) store(vst tileStore, acc *accFile8, out, res []float32, nchw bool,
	n, kBase, kHi, oh, qt0, vwEff int, firstC, lastC bool) {
	dst, resT, ep, stride := p.tileOperands(out, res, nchw, n, kBase, oh, qt0, lastC)
	if vst != nil && kBase+8 <= kHi {
		vst(acc, dst, resT, ep, kBase, stride, vwEff, nchw, !firstC)
		return
	}
	storeTile(acc[:], 2, dst, resT, ep, kBase, min(kBase+8, kHi), stride, vwEff, nchw, !firstC)
}

// storeGeneric is the arbitrary-V_k variant of store.
func (p *Plan) storeGeneric(acc []simd.Vec4, out, res []float32, nchw bool,
	n, kBase, kHi, oh, qt0, vwEff int, firstC, lastC bool) {
	dst, resT, ep, stride := p.tileOperands(out, res, nchw, n, kBase, oh, qt0, lastC)
	storeTile(acc, p.RT.Vk/simd.Width, dst, resT, ep, kBase, min(kBase+p.RT.Vk, kHi), stride, vwEff, nchw, !firstC)
}

// storeTile is the portable tile store, tileStore's convention plus the
// two things only it handles: a ragged K-block (kEnd < kBase + V_k) and
// any V_k (acc is indexed acc[ow*jn + j][lane], jn = V_k/4).
func storeTile(acc []simd.Vec4, jn int, dst, res []float32, ep *epilogue, kBase, kEnd, stride, vwEff int, nchw, accumulate bool) {
	for k := kBase; k < kEnd; k++ {
		j, lane := (k-kBase)/simd.Width, (k-kBase)%simd.Width
		off, step := (k-kBase)*stride, 1
		if !nchw {
			off, step = k-kBase, stride
		}
		var resRow []float32
		if res != nil {
			resRow = res[off:]
		}
		storeLane(dst[off:], resRow, step, acc, jn, j, lane, vwEff, k, accumulate, ep)
	}
}

// storeLane writes one output channel's row of the register tile.
func storeLane(row, res []float32, step int, acc []simd.Vec4, jn, j, lane, vwEff, k int, accumulate bool, ep *epilogue) {
	var bias, scale, shift float32
	hasBias, hasAffine, hasRes, relu := false, false, false, false
	if ep != nil {
		if ep.bias != nil {
			bias, hasBias = ep.bias[k], true
		}
		if ep.scale != nil {
			scale, shift, hasAffine = ep.scale[k], ep.shift[k], true
		}
		hasRes = ep.residual
		relu = ep.relu
	}
	x := 0
	for ow := 0; ow < vwEff; ow++ {
		v := acc[ow*jn+j][lane]
		if accumulate {
			v += row[x]
		}
		if hasBias {
			v += bias
		}
		if hasAffine {
			v = v*scale + shift
		}
		if hasRes {
			v += res[x]
		}
		if relu && v < 0 {
			v = 0
		}
		row[x] = v
		x += step
	}
}
