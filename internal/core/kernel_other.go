//go:build !amd64

package core

import "ndirect/internal/conv"

// No vector body on this architecture: the standard kernel families run
// the looped Go kernel (Plan.body), the depthwise families the
// depthwisePlaneRange oracle (dwBody).
const hasVectorBody, hasPairBody = false, false

// vector12x8 is never bound when hasVectorBody is false; it exists so
// the binder in dispatch.go compiles everywhere.
func vector12x8(acc *accFile8, buf, tf []float32, rows, s, str, vwEff, pitch int) {
	kernel12x8(acc, buf, tf, rows, s, str, vwEff, pitch)
}

// vector12x16 is never bound when hasPairBody is false; it exists so the
// binder in dispatch.go compiles everywhere.
func vector12x16(acc *accPair, buf, tf []float32, tfOff, rows, s, str, vwEff, pitch int) {
	kernel12x8(&acc[0], buf, tf, rows, s, str, vwEff, pitch)
	kernel12x8(&acc[1], buf, tf[tfOff:], rows, s, str, vwEff, pitch)
}

// vectorDepthwise3x3 is never bound when hasVectorBody is false; it
// exists so the binder in dispatch.go compiles everywhere.
func vectorDepthwise3x3(s conv.Shape, in, filter, dst []float32, h0, h1 int) {
	depthwisePlaneRange(s, in, filter, dst, h0, h1)
}
