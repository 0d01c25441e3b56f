package core

import (
	"fmt"

	"ndirect/internal/conv"
)

// hasVectorBody reports whether this process can run the AVX2 body of
// kernel_amd64.s: the CPU implements AVX2 and the OS saves the YMM
// state across context switches.
var hasVectorBody = detectAVX2()

// hasPairBody reports whether this process can also run the AVX-512
// paired body of kernel_amd64.s: the AVX2 body's host plus AVX512F, with
// the OS saving the opmask and ZMM state.
var hasPairBody = hasVectorBody && detectAVX512F()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmmState = 0x6 // XCR0 bits 1 and 2
	if eax, _ := xgetbv(); eax&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// detectAVX512F is called only once detectAVX2 has vouched for leaf 7
// and OSXSAVE.
func detectAVX512F() bool {
	const zmmState = 0xE6 // XCR0 bits 1, 2 and 5–7: XMM, YMM, opmask, ZMM0–15 high, ZMM16–31
	if eax, _ := xgetbv(); eax&zmmState != zmmState {
		return false
	}
	const avx512f = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func kernel12x8AVX2(acc *accFile8, buf, tf *float32, rows, s, str, pitch, vwEff int)

// vector12x8 is kernel12x8 on the AVX2 body: same operands, same
// accumulator bits. It is the Go side of the assembly boundary — the
// body does no checking of its own, so the extents are proven here: one
// bounds check on the last element each operand is read at.
func vector12x8(acc *accFile8, buf, tf []float32, rows, s, str, vwEff, pitch int) {
	if rows <= 0 || s <= 0 || str <= 0 || pitch < 0 || vwEff <= 0 || vwEff > maxVw {
		return
	}
	_ = buf[(rows-1)*pitch+(vwEff-1)*str+s-1]
	_ = tf[rows*s*8-1]
	kernel12x8AVX2(acc, &buf[0], &tf[0], rows, s, str, pitch, vwEff)
}

//go:noescape
func kernel12x16AVX512(acc *accPair, buf, tf *float32, tfOff, rows, s, str, pitch, vwEff int)

// vector12x16 is vector12x8 over two adjacent K-blocks in one pass, on
// the AVX-512 paired body: block 0's filter at tf into acc[0], block 1's
// at tf[tfOff:] into acc[1], over the same input rows. Each half stores
// exactly the bits vector12x8 stores for its block. Like vector12x8 it
// proves the extents before the body runs.
func vector12x16(acc *accPair, buf, tf []float32, tfOff, rows, s, str, vwEff, pitch int) {
	if rows <= 0 || s <= 0 || str <= 0 || pitch < 0 || tfOff < 0 || vwEff <= 0 || vwEff > maxVw {
		return
	}
	_ = buf[(rows-1)*pitch+(vwEff-1)*str+s-1]
	_ = tf[tfOff+rows*s*8-1]
	kernel12x16AVX512(acc, &buf[0], &tf[0], tfOff, rows, s, str, pitch, vwEff)
}

//go:noescape
func kernelDepthwise3x3AVX2(in, filter, dst *float32, w, h, str, pad, q, h0, h1, lo, hi int)

// vectorDepthwise3x3 is depthwisePlaneRange for a 3×3 filter at stride 1
// or 2 on the AVX2 body of dwkernel_amd64.s: same operands, same output
// bits. Like vector12x8 it is the Go side of the assembly boundary: one
// bounds check on the last element each operand is touched at. The body
// reads only input rows in [0, H) and columns in [0, W).
func vectorDepthwise3x3(s conv.Shape, in, filter, dst []float32, h0, h1 int) {
	if s.R != 3 || s.S != 3 || s.Str < 1 || s.Str > 2 {
		panic(fmt.Sprintf("core: 3×3 depthwise body bound to %v", s))
	}
	if h0 >= h1 {
		return
	}
	q := s.Q()
	_ = in[s.H*s.W-1]
	_ = filter[8]
	_ = dst[(h1-h0)*q-1]
	lo, hi := dwVectorColumns(s)
	kernelDepthwise3x3AVX2(&in[0], &filter[0], &dst[0], s.W, s.H, s.Str, s.Pad, q, h0, h1, lo, hi)
}
