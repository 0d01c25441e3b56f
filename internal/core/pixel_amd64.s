#include "textflag.h"

// The AVX-512 pointwise body: one 8-channel × 48-pixel output tile of a
// 1×1, stride-1, unpadded NCHW convolution, vectorised over pixels
// (DESIGN.md §11). For R = S = 1 there is no filter window to reuse a
// loaded input element across, so the vector axis flips from output
// channels to NCHW's contiguous one: per input channel the body loads 48
// pixels as three zmm, broadcasts each of the K-block's eight weights
// from the [⌈K/8⌉][C][8] packed filter and issues three VFMADD231PS —
// acc = fma(w, x, acc), one rounding per tap, the chain kernel12x8
// computes with fma32 — channel ascending from zeroed registers. The
// tile then leaves from registers as eight contiguous 48-float rows
// (storePixel8x48AVX512) with no transpose.
//
// The two halves are separate symbols so each keeps to one side of the
// numeric contract's fences: the kernel half holds the fused
// multiply-adds and no separate multiply, the store half the epilogue's
// separate roundings and no fused multiply-add. The kernel half ends in
// a tail jump to the store half, which shares its argument frame and
// finds the tile in Z0–Z23 and the pixel masks in K1–K3.
//
// Register map:
//	Z0–Z23  accumulators: output channel r's pixels 0–15, 16–31, 32–47
//	        in Z<3r>, Z<3r+1>, Z<3r+2>
//	Z24–Z26 the current input channel's pixels 0–15, 16–31, 32–47
//	Z27     broadcast weight
//	K1–K3   pixel lanes in [0, npx) of Z24, Z25, Z26 (and of every row)
//	SI  input channel cursor   DX  weight cursor   R10  pitch (B)
//	CX  channels left

// PXTAP is one weight of the current channel: output channel r's
// weight at off(DX), broadcast and multiplied into r's three registers.
#define PXTAP(off, A, B, C) \
	VBROADCASTSS off(DX), Z27; \
	VFMADD231PS Z24, Z27, A; \
	VFMADD231PS Z25, Z27, B; \
	VFMADD231PS Z26, Z27, C

// func kernelPixel8x48AVX512(dst, in, tf, res, bias, scale, shift *float32, rows, pitch, stride, npx, nk, flags int)
//
// The caller guarantees rows ≥ 1, 1 ≤ npx ≤ 48, 1 ≤ nk ≤ 8 and that the
// last element each operand is touched at — in[(rows-1)·pitch+npx-1],
// tf[rows·8-1], dst (and res, when set) [(nk-1)·stride+npx-1], each
// parameter array's nk-1 — is in bounds.
TEXT ·kernelPixel8x48AVX512(SB), NOSPLIT, $0-104
	MOVQ in+8(FP), SI
	MOVQ tf+16(FP), DX
	MOVQ pitch+64(FP), R10
	SHLQ $2, R10

	// Masks: the low npx bits of 1<<npx - 1, sixteen per register.
	MOVQ npx+80(FP), CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1
	SHRQ $16, AX
	KMOVW AX, K2
	SHRQ $16, AX
	KMOVW AX, K3

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	VPXORD Z20, Z20, Z20
	VPXORD Z21, Z21, Z21
	VPXORD Z22, Z22, Z22
	VPXORD Z23, Z23, Z23
	MOVQ rows+56(FP), CX

	// Pixels at or past npx are loaded as zeros and never stored: the
	// masked loads touch nothing past the tile, whose neighbour may be
	// another worker's or the end of the input.
	PCALIGN $64
pxTap:
	VMOVUPS.Z (SI), K1, Z24
	VMOVUPS.Z 64(SI), K2, Z25
	VMOVUPS.Z 128(SI), K3, Z26
	PXTAP(0, Z0, Z1, Z2)
	PXTAP(4, Z3, Z4, Z5)
	PXTAP(8, Z6, Z7, Z8)
	PXTAP(12, Z9, Z10, Z11)
	PXTAP(16, Z12, Z13, Z14)
	PXTAP(20, Z15, Z16, Z17)
	PXTAP(24, Z18, Z19, Z20)
	PXTAP(28, Z21, Z22, Z23)
	ADDQ $32, DX
	ADDQ R10, SI
	DECQ CX
	JNZ  pxTap
	JMP  ·storePixel8x48AVX512(SB)

// The store half: storeTile's per-element epilogue (store.go) on one
// output channel's 48 contiguous pixels at a time, in its order — (+ out),
// + bias, · scale, + shift, + residual, max with 0 — each step behind its
// own test and each a separate instruction: VMULPS then VADDPS, two
// roundings, as store_amd64.s. ReLU is VMAXPS with zero as the first
// source, so NaN and −0 pass through. Every access to dst and res is
// under the pixel masks, which neither read nor write a masked-off
// element; a ragged K-block stores its first nk rows.
//
//	DI  dst row   R8  res row (0: none)   R11, R12, R13  bias, scale, shift
//	R10 stride (B)   CX rows left to store   AX flags
//	Z28, Z29  broadcast parameters        Z31  zero

#define PXACCUMULATE $1
#define PXRELU $2

// PXROW stores output channel r from A, B, C; the labels are the row's
// own jump targets.
#define PXROW(A, B, C, biasL, scaleL, resL, reluL, putL) \
	TESTQ PXACCUMULATE, AX; \
	JZ   biasL; \
	VADDPS (DI), A, K1, A; \
	VADDPS 64(DI), B, K2, B; \
	VADDPS 128(DI), C, K3, C; \
biasL: \
	TESTQ R11, R11; \
	JZ   scaleL; \
	VBROADCASTSS (R11), Z28; \
	VADDPS Z28, A, A; \
	VADDPS Z28, B, B; \
	VADDPS Z28, C, C; \
	ADDQ $4, R11; \
scaleL: \
	TESTQ R12, R12; \
	JZ   resL; \
	VBROADCASTSS (R12), Z28; \
	VBROADCASTSS (R13), Z29; \
	VMULPS Z28, A, A; \
	VMULPS Z28, B, B; \
	VMULPS Z28, C, C; \
	VADDPS Z29, A, A; \
	VADDPS Z29, B, B; \
	VADDPS Z29, C, C; \
	ADDQ $4, R12; \
	ADDQ $4, R13; \
resL: \
	TESTQ R8, R8; \
	JZ   reluL; \
	VADDPS (R8), A, K1, A; \
	VADDPS 64(R8), B, K2, B; \
	VADDPS 128(R8), C, K3, C; \
	ADDQ R10, R8; \
reluL: \
	TESTQ PXRELU, AX; \
	JZ   putL; \
	VMAXPS A, Z31, A; \
	VMAXPS B, Z31, B; \
	VMAXPS C, Z31, C; \
putL: \
	VMOVUPS A, K1, (DI); \
	VMOVUPS B, K2, 64(DI); \
	VMOVUPS C, K3, 128(DI); \
	ADDQ R10, DI

// func storePixel8x48AVX512(dst, in, tf, res, bias, scale, shift *float32, rows, pitch, stride, npx, nk, flags int)
//
// Entered only by kernelPixel8x48AVX512's tail jump, never called from
// Go: its operands are that call's frame and registers.
TEXT ·storePixel8x48AVX512(SB), NOSPLIT, $0-104
	MOVQ dst+0(FP), DI
	MOVQ res+24(FP), R8
	MOVQ bias+32(FP), R11
	MOVQ scale+40(FP), R12
	MOVQ shift+48(FP), R13
	MOVQ stride+72(FP), R10
	MOVQ nk+88(FP), CX
	MOVQ flags+96(FP), AX
	SHLQ $2, R10
	VPXORD Z31, Z31, Z31

	PXROW(Z0, Z1, Z2, b0, s0, r0, m0, p0)
	DECQ CX
	JZ   pxDone
	PXROW(Z3, Z4, Z5, b1, s1, r1, m1, p1)
	DECQ CX
	JZ   pxDone
	PXROW(Z6, Z7, Z8, b2, s2, r2, m2, p2)
	DECQ CX
	JZ   pxDone
	PXROW(Z9, Z10, Z11, b3, s3, r3, m3, p3)
	DECQ CX
	JZ   pxDone
	PXROW(Z12, Z13, Z14, b4, s4, r4, m4, p4)
	DECQ CX
	JZ   pxDone
	PXROW(Z15, Z16, Z17, b5, s5, r5, m5, p5)
	DECQ CX
	JZ   pxDone
	PXROW(Z18, Z19, Z20, b6, s6, r6, m6, p6)
	DECQ CX
	JZ   pxDone
	PXROW(Z21, Z22, Z23, b7, s7, r7, m7, p7)
pxDone:
	VZEROUPPER
	RET
