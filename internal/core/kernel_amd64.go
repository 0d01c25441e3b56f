package core

// hasVectorBody reports whether this process can run the AVX2 body of
// kernel_amd64.s: the CPU implements AVX2 and the OS saves the YMM
// state across context switches.
var hasVectorBody = detectAVX2()

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
