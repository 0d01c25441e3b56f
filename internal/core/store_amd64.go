package core

//go:noescape
func storeNHWCAVX2(acc *accFile8, dst, res, bias, scale, shift *float32, stride, vwEff, flags int)

//go:noescape
func storeNCHWAVX2(acc *accFile8, dst, res, bias, scale, shift *float32, stride, vwEff, flags int)

// vectorStore is storeTile for one full K-block on the AVX2 routines of
// store_amd64.s: same operands, same stored bits. It is the Go side of
// the assembly boundary — the routines do no checking of their own, so
// the extents are proven here: one bounds check on the last element each
// operand is touched at.
func vectorStore(acc *accFile8, dst, res []float32, ep *epilogue, kBase, stride, vwEff int, nchw, accumulate bool) {
	if vwEff <= 0 || vwEff > maxVw || stride < 0 {
		return
	}
	last := (vwEff-1)*stride + 7
	if nchw {
		last = 7*stride + vwEff - 1
	}
	_ = dst[last]
	var resP, bias, scale, shift *float32
	flags := 0
	if accumulate {
		flags |= 1
	}
	if ep != nil {
		if ep.residual {
			_ = res[last]
			resP = &res[0]
		}
		if ep.bias != nil {
			bias = &ep.bias[kBase : kBase+8][0]
		}
		if ep.scale != nil {
			scale, shift = &ep.scale[kBase : kBase+8][0], &ep.shift[kBase : kBase+8][0]
		}
		if ep.relu {
			flags |= 2
		}
	}
	if nchw {
		storeNCHWAVX2(acc, &dst[0], resP, bias, scale, shift, stride, vwEff, flags)
	} else {
		storeNHWCAVX2(acc, &dst[0], resP, bias, scale, shift, stride, vwEff, flags)
	}
}
