package core

import (
	"fmt"

	"ndirect/internal/conv"
)

// hasVectorBody reports whether this process can run the AVX2 bodies of
// kernel_amd64.s and dwkernel_amd64.s: the CPU implements AVX2 and FMA3
// and the OS saves the YMM state across context switches.
//
// hasPairBody reports whether it can also run the AVX-512 paired and
// four-block bodies: the AVX2 body's host plus AVX512F, with the OS
// saving the opmask and ZMM state.
var hasVectorBody, hasPairBody = detectVectorISA(readCPUID())

// cpuidWords are the CPUID and XGETBV words detectVectorISA decides on;
// readCPUID reads them from this CPU.
type cpuidWords struct {
	maxLeaf  uint32 // CPUID.0:EAX
	leaf1ECX uint32 // CPUID.1:ECX
	leaf7EBX uint32 // CPUID.(7,0):EBX
	xcr0     uint32 // XCR0 (low word), read only when OSXSAVE is set
}

func readCPUID() cpuidWords {
	var w cpuidWords
	w.maxLeaf, _, _, _ = cpuid(0, 0)
	_, _, w.leaf1ECX, _ = cpuid(1, 0)
	if w.maxLeaf >= 7 {
		_, w.leaf7EBX, _, _ = cpuid(7, 0)
	}
	const osxsave = 1 << 27
	if w.leaf1ECX&osxsave != 0 {
		w.xcr0, _ = xgetbv()
	}
	return w
}

// detectVectorISA is the binding decision as a pure function of the
// CPUID/XGETBV words: the AVX2 bodies need AVX, FMA3 (every accumulating
// body issues VFMADD231PS/SS), OSXSAVE with the XMM and YMM state
// enabled, and AVX2; the AVX-512 bodies need all of that plus AVX512F
// with the opmask and ZMM state enabled. A host missing any of it runs
// the looped Go kernel and the Go store.
func detectVectorISA(w cpuidWords) (avx2, avx512 bool) {
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	const xmmYmmState = 0x6 // XCR0 bits 1 and 2
	const avx2Bit = 1 << 5
	if w.maxLeaf < 7 || w.leaf1ECX&(fma|osxsave|avx) != fma|osxsave|avx ||
		w.xcr0&xmmYmmState != xmmYmmState || w.leaf7EBX&avx2Bit == 0 {
		return false, false
	}
	const zmmState = 0xE6 // XCR0 bits 1, 2 and 5–7: XMM, YMM, opmask, ZMM0–15 high, ZMM16–31
	const avx512f = 1 << 16
	return true, w.xcr0&zmmState == zmmState && w.leaf7EBX&avx512f != 0
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
func kernel12x16AVX512(acc *accTile, buf, tf *float32, tfOff, rows, s, str, pitch, vwEff int)

// vector12x16 is vector12x8 over two adjacent K-blocks in one pass, on
// the AVX-512 paired body: block 0's filter at tf into acc[0], block 1's
// at tf[tfOff:] into acc[1], over the same input rows. Each half stores
// exactly the bits vector12x8 stores for its block. Like vector12x8 it
// proves the extents before the body runs.
func vector12x16(acc *accTile, buf, tf []float32, tfOff, rows, s, str, vwEff, pitch int) {
	if rows <= 0 || s <= 0 || str <= 0 || pitch < 0 || tfOff < 0 || vwEff <= 0 || vwEff > maxVw {
		return
	}
	_ = buf[(rows-1)*pitch+(vwEff-1)*str+s-1]
	_ = tf[tfOff+rows*s*8-1]
	kernel12x16AVX512(acc, &buf[0], &tf[0], tfOff, rows, s, str, pitch, vwEff)
}

//go:noescape
func kernel12x32AVX512(acc *accTile, buf, tf *float32, tfOff, rows, s, str, pitch, vwEff int)

// vector12x32 is vector12x8 over four adjacent K-blocks in one pass, on
// the AVX-512 four-block body: block b's filter at tf[b·tfOff:] into
// acc[b], over the same input rows. Each quarter stores exactly the bits
// vector12x8 stores for its block. Like vector12x8 it proves the extents
// before the body runs.
func vector12x32(acc *accTile, buf, tf []float32, tfOff, rows, s, str, vwEff, pitch int) {
	if rows <= 0 || s <= 0 || str <= 0 || pitch < 0 || tfOff < 0 || vwEff <= 0 || vwEff > maxVw {
		return
	}
	_ = buf[(rows-1)*pitch+(vwEff-1)*str+s-1]
	_ = tf[3*tfOff+rows*s*8-1]
	kernel12x32AVX512(acc, &buf[0], &tf[0], tfOff, rows, s, str, pitch, vwEff)
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
