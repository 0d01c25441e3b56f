//go:build !amd64

package core

import "ndirect/internal/conv"

// No vector body on this architecture: the standard family runs the
// looped Go kernel (Plan.body), the depthwise families the
// depthwisePlaneRange oracle (dwBody).
const hasVectorBody, hasPairBody = false, false

// vector12x8 is never bound when hasVectorBody is false; it exists so
// the binder in dispatch.go compiles everywhere.
func vector12x8(acc *accFile8, buf, tf []float32, rows, s, str, vwEff, pitch int) {
	kernel12x8(acc, buf, tf, rows, s, str, vwEff, pitch)
}

// vector12x16 is never bound when hasPairBody is false; it exists so the
// binder in dispatch.go compiles everywhere.
func vector12x16(acc *accTile, buf, tf []float32, tfOff, rows, s, str, vwEff, pitch int) {
	for b := range 2 {
		kernel12x8(&acc[b], buf, tf[b*tfOff:], rows, s, str, vwEff, pitch)
	}
}

// vector12x32 is never bound when hasPairBody is false; it exists so the
// binder in dispatch.go compiles everywhere.
func vector12x32(acc *accTile, buf, tf []float32, tfOff, rows, s, str, vwEff, pitch int) {
	for b := range 4 {
		kernel12x8(&acc[b], buf, tf[b*tfOff:], rows, s, str, vwEff, pitch)
	}
}

// vectorPixel is never bound when hasPairBody is false; it exists so the
// binder in dispatch.go compiles everywhere.
func vectorPixel(dst, res, in, tf []float32, ep *epilogue, kBase, kEnd, rows, pitch, stride, npx int, accumulate bool) {
	pixelTile(dst, res, in, tf, ep, kBase, kEnd, rows, pitch, stride, npx, accumulate)
}

// vectorDepthwise3x3 is never bound when hasVectorBody is false; it
// exists so the binder in dispatch.go compiles everywhere.
func vectorDepthwise3x3(s conv.Shape, in, filter, dst []float32, h0, h1 int) {
	depthwisePlaneRange(s, in, filter, dst, h0, h1)
}
