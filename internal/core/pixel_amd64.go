package core

//go:noescape
func kernelPixel8x48AVX512(dst, in, tf, res, bias, scale, shift *float32, rows, pitch, stride, npx, nk, flags int)

// storePixel8x48AVX512 is kernelPixel8x48AVX512's store half, entered
// only by that routine's tail jump with the tile in its vector
// registers; a call from Go would store whatever they hold.
//
//go:noescape
func storePixel8x48AVX512(dst, in, tf, res, bias, scale, shift *float32, rows, pitch, stride, npx, nk, flags int)

// vectorPixel is pixelTile on the AVX-512 pointwise body of
// pixel_amd64.s: same operands, same stored bits. Like vector12x8 it is
// the Go side of the assembly boundary — the body does no checking of
// its own, so the extents are proven here: one bounds check on the last
// element each operand is touched at.
func vectorPixel(dst, res, in, tf []float32, ep *epilogue, kBase, kEnd, rows, pitch, stride, npx int, accumulate bool) {
	nk := kEnd - kBase
	if rows <= 0 || npx <= 0 || npx > pxTile || nk <= 0 || nk > 8 || pitch < 0 || stride < 0 {
		return
	}
	_ = in[(rows-1)*pitch+npx-1]
	_ = tf[rows*8-1]
	last := (nk-1)*stride + npx - 1
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
			bias = &ep.bias[kBase:kEnd][0]
		}
		if ep.scale != nil {
			scale, shift = &ep.scale[kBase:kEnd][0], &ep.shift[kBase:kEnd][0]
		}
		if ep.relu {
			flags |= 2
		}
	}
	kernelPixel8x48AVX512(&dst[0], &in[0], &tf[0], resP, bias, scale, shift, rows, pitch, stride, npx, nk, flags)
}
