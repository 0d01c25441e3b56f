#include "textflag.h"

// The AVX2 tile store of the V_k=8 register file: storeTile (store.go)
// for one full K-block, eight lanes at a time. The per-element operation
// order is storeTile's — (+ out), + bias, · scale, + shift, + residual,
// max with 0 — each step behind its own test and each a separate
// instruction: VMULPS then VADDPS, two roundings, where the Go store has
// MULSS then ADDSS (a fused multiply-add would round once). ReLU is
// VMAXPS with zero as the first source and the value as the second:
// MAXPS returns its second source when either is NaN or both are zero,
// so NaN and −0 pass through exactly as `if v < 0 { v = 0 }` lets them.
//
// Both routines share one argument frame:
//
//	acc    the accumulator file: column ow is the 32 bytes at acc + 32·ow
//	dst    the tile's first output element; res the same element of the
//	       residual operand, nil for none
//	bias, scale, shift   the K-block's eight parameters, nil for none
//	       (scale and shift come together)
//	stride elements between channel rows (NCHW) or columns (NHWC)
//	flags  bit 0: add what dst holds first; bit 1: ReLU
//
// Register map (both):
//	SI   acc / row cursor   DI  dst cursor   R8  res cursor
//	R11, R12, R13  bias, scale, shift        R10 stride (B)
//	CX   rows left          AX  flags
//	Y12  zero

#define ACCUMULATE $1
#define RELU $2

// NHWC: the accumulator file already is the output row — column ow's
// eight channels are contiguous in memory — so a tile is vwEff 32-byte
// rows, the epilogue parameters eight-lane vectors loaded once.
//
//	Y13, Y14, Y15  bias, scale, shift
//
// func storeNHWCAVX2(acc *accFile8, dst, res, bias, scale, shift *float32, stride, vwEff, flags int)
//
// The caller guarantees 1 ≤ vwEff ≤ 12 and that dst (and res, when set)
// holds elements 0..(vwEff-1)·stride+7, each parameter array eight.
TEXT ·storeNHWCAVX2(SB), NOSPLIT, $0-72
	MOVQ acc+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ res+16(FP), R8
	MOVQ bias+24(FP), R11
	MOVQ scale+32(FP), R12
	MOVQ shift+40(FP), R13
	MOVQ stride+48(FP), R10
	MOVQ vwEff+56(FP), CX
	MOVQ flags+64(FP), AX
	SHLQ $2, R10
	VXORPS Y12, Y12, Y12
	TESTQ R11, R11
	JZ   hwcAffine
	VMOVUPS (R11), Y13
hwcAffine:
	TESTQ R12, R12
	JZ   hwcCol
	VMOVUPS (R12), Y14
	VMOVUPS (R13), Y15

hwcCol:
	VMOVUPS (SI), Y0
	TESTQ ACCUMULATE, AX
	JZ   hwcBias
	VADDPS (DI), Y0, Y0
hwcBias:
	TESTQ R11, R11
	JZ   hwcScale
	VADDPS Y13, Y0, Y0
hwcScale:
	TESTQ R12, R12
	JZ   hwcRes
	VMULPS Y14, Y0, Y0
	VADDPS Y15, Y0, Y0
hwcRes:
	TESTQ R8, R8
	JZ   hwcRelu
	VADDPS (R8), Y0, Y0
	ADDQ R10, R8
hwcRelu:
	TESTQ RELU, AX
	JZ   hwcPut
	VMAXPS Y0, Y12, Y0
hwcPut:
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  hwcCol
	VZEROUPPER
	RET

// NCHW: a channel's vwEff columns are contiguous in memory and the
// file holds them one per register, so the file is transposed first —
// columns 0–7 as an 8×8 block, columns 8–11 as an 8×4 — into a row-major
// copy on the stack: channel k at 48·k(SP), eight floats then four.
// Columns at or past vwEff are transposed with the rest and never leave
// the stack: every access to dst and res is a VMASKMOVPS under the
// tile-width masks, which neither reads nor writes a masked-off element
// (the neighbouring tile may belong to another worker, the next page may
// not exist). The epilogue parameters are one scalar per row, broadcast.
//
//	Y13, X14  masks of columns 0–7 and 8–11       Y15  broadcast parameter
//	Y0, X1    the row's columns 0–7 and 8–11      Y2, X3  loaded dst / res
//
// func storeNCHWAVX2(acc *accFile8, dst, res, bias, scale, shift *float32, stride, vwEff, flags int)
//
// The caller guarantees 1 ≤ vwEff ≤ 12 and that dst (and res, when set)
// holds elements 0..7·stride+vwEff-1, each parameter array eight.
TEXT ·storeNCHWAVX2(SB), NOSPLIT, $384-72
	MOVQ acc+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ res+16(FP), R8
	MOVQ bias+24(FP), R11
	MOVQ scale+32(FP), R12
	MOVQ shift+40(FP), R13
	MOVQ stride+48(FP), R10
	MOVQ vwEff+56(FP), BX
	MOVQ flags+64(FP), AX
	SHLQ $2, R10

	// Masks: min(vwEff, 8) leading lanes of eight, max(vwEff-8, 0) of
	// four, each read from the ones-then-zeros table at 8 - width.
	MOVQ $8, CX
	CMPQ BX, CX
	CMOVQLT BX, CX
	MOVQ $8, DX
	SUBQ CX, DX
	LEAQ storeMask<>(SB), R9
	VMOVUPS (R9)(DX*4), Y13
	SUBQ CX, BX
	MOVQ $8, DX
	SUBQ BX, DX
	VMOVUPS (R9)(DX*4), X14

	// Columns 0–7 → rows' first eight floats. Pairs interleave, pairs of
	// pairs gather four columns of one channel per 128-bit lane: channel k
	// in the low lane, k+4 in the high one.
	VMOVUPS 0(SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMOVUPS 128(SI), Y4
	VMOVUPS 160(SI), Y5
	VMOVUPS 192(SI), Y6
	VMOVUPS 224(SI), Y7
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VSHUFPS $0x44, Y10, Y8, Y0  // channels 0|4 of columns 0–3
	VSHUFPS $0xEE, Y10, Y8, Y1  // channels 1|5
	VSHUFPS $0x44, Y11, Y9, Y2  // channels 2|6
	VSHUFPS $0xEE, Y11, Y9, Y3  // channels 3|7
	VUNPCKLPS Y5, Y4, Y8
	VUNPCKHPS Y5, Y4, Y9
	VUNPCKLPS Y7, Y6, Y10
	VUNPCKHPS Y7, Y6, Y11
	VSHUFPS $0x44, Y10, Y8, Y4  // channels 0|4 of columns 4–7
	VSHUFPS $0xEE, Y10, Y8, Y5
	VSHUFPS $0x44, Y11, Y9, Y6
	VSHUFPS $0xEE, Y11, Y9, Y7
	VMOVUPS X0, 0(SP)
	VMOVUPS X4, 16(SP)
	VMOVUPS X1, 48(SP)
	VMOVUPS X5, 64(SP)
	VMOVUPS X2, 96(SP)
	VMOVUPS X6, 112(SP)
	VMOVUPS X3, 144(SP)
	VMOVUPS X7, 160(SP)
	VEXTRACTF128 $1, Y0, 192(SP)
	VEXTRACTF128 $1, Y4, 208(SP)
	VEXTRACTF128 $1, Y1, 240(SP)
	VEXTRACTF128 $1, Y5, 256(SP)
	VEXTRACTF128 $1, Y2, 288(SP)
	VEXTRACTF128 $1, Y6, 304(SP)
	VEXTRACTF128 $1, Y3, 336(SP)
	VEXTRACTF128 $1, Y7, 352(SP)

	// Columns 8–11 → rows' last four floats.
	VMOVUPS 256(SI), Y0
	VMOVUPS 288(SI), Y1
	VMOVUPS 320(SI), Y2
	VMOVUPS 352(SI), Y3
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VMOVUPS X0, 32(SP)
	VMOVUPS X1, 80(SP)
	VMOVUPS X2, 128(SP)
	VMOVUPS X3, 176(SP)
	VEXTRACTF128 $1, Y0, 224(SP)
	VEXTRACTF128 $1, Y1, 272(SP)
	VEXTRACTF128 $1, Y2, 320(SP)
	VEXTRACTF128 $1, Y3, 368(SP)

	VXORPS Y12, Y12, Y12
	MOVQ SP, SI
	MOVQ $8, CX

chwRow:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), X1
	TESTQ ACCUMULATE, AX
	JZ   chwBias
	VMASKMOVPS (DI), Y13, Y2
	VMASKMOVPS 32(DI), X14, X3
	VADDPS Y2, Y0, Y0
	VADDPS X3, X1, X1
chwBias:
	TESTQ R11, R11
	JZ   chwScale
	VBROADCASTSS (R11), Y15
	VADDPS Y15, Y0, Y0
	VADDPS X15, X1, X1
	ADDQ $4, R11
chwScale:
	TESTQ R12, R12
	JZ   chwRes
	VBROADCASTSS (R12), Y15
	VMULPS Y15, Y0, Y0
	VMULPS X15, X1, X1
	VBROADCASTSS (R13), Y15
	VADDPS Y15, Y0, Y0
	VADDPS X15, X1, X1
	ADDQ $4, R12
	ADDQ $4, R13
chwRes:
	TESTQ R8, R8
	JZ   chwRelu
	VMASKMOVPS (R8), Y13, Y2
	VMASKMOVPS 32(R8), X14, X3
	VADDPS Y2, Y0, Y0
	VADDPS X3, X1, X1
	ADDQ R10, R8
chwRelu:
	TESTQ RELU, AX
	JZ   chwPut
	VMAXPS Y0, Y12, Y0
	VMAXPS X1, X12, X1
chwPut:
	VMASKMOVPS Y0, Y13, (DI)
	VMASKMOVPS X1, X14, 32(DI)
	ADDQ $48, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  chwRow
	VZEROUPPER
	RET

// Eight all-ones lanes, then eight zero lanes: the width-w mask is the
// vector that starts 8-w lanes in.
DATA storeMask<>+0(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA storeMask<>+8(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA storeMask<>+16(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA storeMask<>+24(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA storeMask<>+32(SB)/8, $0
DATA storeMask<>+40(SB)/8, $0
DATA storeMask<>+48(SB)/8, $0
DATA storeMask<>+56(SB)/8, $0
GLOBL storeMask<>(SB), RODATA|NOPTR, $64
