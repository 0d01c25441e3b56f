package core

// The pointwise body (DESIGN.md §11). A 1×1, stride-1, unpadded NCHW
// convolution has no filter window: output pixel i of a plane reads only
// input pixel i of each channel. The 12×8 bodies vectorise over output
// channels and broadcast input pixels, which is what reuses a loaded
// filter vector across a window's taps, and pay for it with a
// transposing store of every tile. With no window to reuse across, the
// pointwise body vectorises over pixels — NCHW's contiguous axis — and
// broadcasts the weights instead, so the same FMA-to-load balance holds
// and the tile leaves as whole output rows.

// pxTile is the pointwise body's tile width in pixels: three 16-lane
// vectors per output channel.
const pxTile = 48

// pixelBody is the calling convention of the pointwise body: one tile of
// output channels kBase..kEnd-1 (one K-block, at most eight) × npx ≤
// pxTile pixels of a 1×1, stride-1, unpadded NCHW convolution, over rows
// input channels, stored with storeTile's per-element epilogue. Input
// channel i's pixels start at in[i*pitch] and its eight weights at
// tf[i*8] (a block of the [⌈K/8⌉][C][8] packed filter, zero lanes past
// K). dst starts at the tile's first output element, channel k's row at
// dst[(k-kBase)*stride:]; res, nil unless ep carries a residual, is laid
// out like dst. accumulate and ep are tileStore's.
type pixelBody func(dst, res, in, tf []float32, ep *epilogue, kBase, kEnd, rows, pitch, stride, npx int, accumulate bool)

// pixelTile is the pointwise body on the 12×8 oracle: the tile as
// ⌈npx/12⌉ register tiles of the looped kernel12x8, each from zeroed
// accumulators and stored by storeTile — the bits every pointwise body
// must store.
func pixelTile(dst, res, in, tf []float32, ep *epilogue, kBase, kEnd, rows, pitch, stride, npx int, accumulate bool) {
	for x := 0; x < npx; x += maxVw {
		vw := min(maxVw, npx-x)
		var acc accFile8
		kernel12x8(&acc, in[x:], tf, rows, 1, 1, vw, pitch)
		var resT []float32
		if res != nil {
			resT = res[x:]
		}
		storeTile(&acc, dst[x:], resT, ep, kBase, kEnd, stride, vw, true, accumulate)
	}
}
