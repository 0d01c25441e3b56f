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

// store writes the accumulator file of the tile that starts at channel
// kBase, row oh, column qt0 of image n into the output tensor, with the
// plan's epilogue on the last channel tile (tileOut): with vst, the
// execution's vector store (Plan.body), for every full K-block, with the
// Go store for a ragged one or when vst is nil.
func (p *Plan) store(vst tileStore, acc *accFile8, out, res []float32, nchw bool,
	n, kBase, kHi, oh, qt0, vwEff int, firstC, lastC bool) {
	base, stride, ep, resT := p.tileOut(res, nchw, n, kBase, oh, qt0, lastC)
	if vst != nil && kBase+8 <= kHi {
		vst(acc, out[base:], resT, ep, kBase, stride, vwEff, nchw, !firstC)
		return
	}
	storeTile(acc, out[base:], resT, ep, kBase, min(kBase+8, kHi), stride, vwEff, nchw, !firstC)
}

// tileOut is where the tile that starts at channel kBase, row oh, column
// qt0 of image n goes: its first output element and the stride between
// its channels (NCHW) or columns (NHWC), and, on the last channel tile,
// the plan's epilogue (nil otherwise) with its residual operand sliced
// like the output.
func (p *Plan) tileOut(res []float32, nchw bool, n, kBase, oh, qt0 int, lastC bool) (base, stride int, ep *epilogue, resT []float32) {
	pp, q, k := p.outP, p.outQ, p.Shape.K
	base, stride = ((n*pp+oh)*q+qt0)*k+kBase, k
	if nchw {
		base, stride = ((n*k+kBase)*pp+oh)*q+qt0, pp*q
	}
	if lastC && !p.ep.none {
		ep = &p.ep
		if ep.residual {
			resT = res[base:]
		}
	}
	return base, stride, ep, resT
}

// storeTile is the portable tile store, tileStore's convention plus the
// one thing only it handles: a ragged K-block (kEnd < kBase + 8).
func storeTile(acc *accFile8, dst, res []float32, ep *epilogue, kBase, kEnd, stride, vwEff int, nchw, accumulate bool) {
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
		storeLane(dst[off:], resRow, step, acc, j, lane, vwEff, k, accumulate, ep)
	}
}

// storeLane writes one output channel's row of the register tile.
func storeLane(row, res []float32, step int, acc *accFile8, j, lane, vwEff, k int, accumulate bool, ep *epilogue) {
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
		v := acc[2*ow+j][lane]
		if accumulate {
			v += row[x]
		}
		if hasBias {
			v += bias
		}
		if hasAffine {
			v = float32(v*scale) + shift
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
