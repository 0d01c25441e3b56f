//go:build !amd64

package core

// vectorStore is never bound when hasVectorBody is false; it exists so
// the binder in dispatch.go compiles everywhere.
func vectorStore(acc *accFile8, dst, res []float32, ep *epilogue, kBase, stride, vwEff int, nchw, accumulate bool) {
	storeTile(acc[:], 2, dst, res, ep, kBase, kBase+8, stride, vwEff, nchw, accumulate)
}
