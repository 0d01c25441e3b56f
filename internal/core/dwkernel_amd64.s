#include "textflag.h"

// The AVX2 vector body of the 3×3 depthwise families (dw.r3s3.s1 and
// dw.r3s3.s2), one body for both strides.
//
// Every output keeps depthwisePlaneRange's operation sequence: the
// accumulator starts at +0, then for r ascending and s ascending each
// in-range tap adds in·f with one VFMADD231PS (VFMADD231SS in a halo
// lane) — acc = fma(in, f, acc), one rounding, the oracle's fma32. An
// out-of-range tap is skipped, never multiplied as a zero.
//
// A row's output columns split three ways (dwVectorColumns): columns
// [lo, hi), whose three taps read inside the input row, run in 8-wide
// blocks, one YMM accumulator per block, the last block overlapping its
// predecessor when hi−lo is not a multiple of 8 (a recomputed column
// stores the same bits); the halo columns before lo and from hi on run
// one lane at a time with every tap guarded. A row whose input window
// leaves [0, h) runs the same blocks without the out-of-range input
// rows. Stride 2 de-interleaves in registers: VSHUFPS splits 16
// consecutive inputs into even and odd lanes — tap s=0 and s=1 — and
// the odd lanes of the 16 inputs one column on are tap s=2. All three
// come out in column order 0 1 4 5 2 3 6 7, so the accumulator is put
// back in order once per block (VPERMPD) instead of once per tap.
//
// Register map:
//	Y0–Y8   the nine taps, broadcast: tap (r, s) in Y<3r+s>
//	Y9      accumulator (X9 in a halo column)
//	Y10–Y12 inputs
//	SI      input plane (row setup); tap mask of a halo column
//	DI      destination row          CX  oh
//	R8–R10  input rows ihBase+0..2, each moved back pad columns so that
//	        column ow's tap 0 sits at ow·str floats from it
//	R11     row mask: bits 3r..3r+2 set while input row ihBase+r is in
//	        [0, h)
//	R12     w                        R13 str
//	AX      ow                       BX, DX  scratch; DX the last
//	        block start in the vector loops

// TAPS_S1 adds one input row's three taps to a stride-1 block.
#define TAPS_S1(R, F0, F1, F2) \
	VFMADD231PS 0(R)(AX*4), F0, Y9; \
	VFMADD231PS 4(R)(AX*4), F1, Y9; \
	VFMADD231PS 8(R)(AX*4), F2, Y9

// TAPS_S2 adds one input row's three taps to a stride-2 block: inputs
// 2·ow−pad .. +15 split into tap 0 (even) and tap 1 (odd), inputs one
// column on give tap 2 (odd). The last input read is 2·ow−pad+16.
#define TAPS_S2(R, F0, F1, F2) \
	VMOVUPS 0(R)(AX*8), Y10; \
	VSHUFPS $0x88, 32(R)(AX*8), Y10, Y11; \
	VSHUFPS $0xdd, 32(R)(AX*8), Y10, Y12; \
	VFMADD231PS F0, Y11, Y9; \
	VFMADD231PS F1, Y12, Y9; \
	VMOVUPS 4(R)(AX*8), Y10; \
	VSHUFPS $0xdd, 36(R)(AX*8), Y10, Y11; \
	VFMADD231PS F2, Y11, Y9

#define ROWS_S1 TAPS_S1(R8, Y0, Y1, Y2); TAPS_S1(R9, Y3, Y4, Y5); TAPS_S1(R10, Y6, Y7, Y8)
#define ROWS_S2 TAPS_S2(R8, Y0, Y1, Y2); TAPS_S2(R9, Y3, Y4, Y5); TAPS_S2(R10, Y6, Y7, Y8)

// EDGE runs the in-range input rows of an edge output row through TAPS.
#define EDGE(TAPS, l1, l2, l3) \
	BTQ $0, R11; JCC l1; TAPS(R8, Y0, Y1, Y2); \
l1: \
	BTQ $3, R11; JCC l2; TAPS(R9, Y3, Y4, Y5); \
l2: \
	BTQ $6, R11; JCC l3; TAPS(R10, Y6, Y7, Y8); \
l3:

#define STORE_S1 VMOVUPS Y9, (DI)(AX*4)
#define STORE_S2 VPERMPD $0xd8, Y9, Y9; VMOVUPS Y9, (DI)(AX*4)

// BLOCKS is the 8-wide block loop from ow = lo: blocks at lo, lo+8, …,
// and a last one at DX = hi−8, then back to the column loop at hi.
#define BLOCKS(loop, ROWS, STORE) \
	PCALIGN $64; \
loop: \
	CMPQ AX, DX; \
	CMOVQGT DX, AX; \
	VXORPS Y9, Y9, Y9; \
	ROWS; \
	STORE; \
	CMPQ AX, DX; \
	JEQ vdone; \
	ADDQ $8, AX; \
	JMP loop

// HALO adds tap bit = 3r+s to a halo column when the tap mask (SI) has it.
#define HALO(bit, off, R, F, skip) \
	BTQ $bit, SI; JCC skip; \
	VFMADD231SS off(R)(BX*4), F, X9; \
skip:

#define ROWS_S1_EDGE EDGE(TAPS_S1, e1a, e1b, e1c)
#define ROWS_S2_EDGE EDGE(TAPS_S2, e2a, e2b, e2c)

// func kernelDepthwise3x3AVX2(in, filter, dst *float32, w, h, str, pad, q, h0, h1, lo, hi int)
//
// Output rows [h0, h1) of one plane into dst (row oh at (oh−h0)·q). The
// caller guarantees str ∈ {1, 2}, either lo = hi = q or 0 ≤ lo ≤ hi−8
// with every tap of columns [lo, hi) inside the input row, and that in
// holds h·w floats, filter 9 and dst (h1−h0)·q.
TEXT ·kernelDepthwise3x3AVX2(SB), NOSPLIT, $0-96
	MOVQ filter+8(FP), AX
	VBROADCASTSS 0(AX), Y0
	VBROADCASTSS 4(AX), Y1
	VBROADCASTSS 8(AX), Y2
	VBROADCASTSS 12(AX), Y3
	VBROADCASTSS 16(AX), Y4
	VBROADCASTSS 20(AX), Y5
	VBROADCASTSS 24(AX), Y6
	VBROADCASTSS 28(AX), Y7
	VBROADCASTSS 32(AX), Y8
	MOVQ dst+16(FP), DI
	MOVQ w+24(FP), R12
	MOVQ str+40(FP), R13
	MOVQ h0+64(FP), CX

row:
	CMPQ CX, h1+72(FP)
	JGE  done

	// ihBase = oh·str − pad; input row ihBase+r is in range when it is
	// below h as an unsigned number.
	MOVQ  CX, DX
	IMULQ R13, DX
	SUBQ  pad+48(FP), DX
	MOVQ  h+32(FP), BX
	XORQ  R11, R11
	CMPQ  DX, BX
	JCC   row1
	ORQ   $0x007, R11

row1:
	LEAQ 1(DX), AX
	CMPQ AX, BX
	JCC  row2
	ORQ  $0x038, R11

row2:
	LEAQ 2(DX), AX
	CMPQ AX, BX
	JCC  rows
	ORQ  $0x1c0, R11

rows:
	// R8 = in + (ihBase·w − pad) floats; R9, R10 one and two rows on.
	// A row out of range is never read.
	IMULQ R12, DX
	SUBQ  pad+48(FP), DX
	MOVQ  in+0(FP), SI
	LEAQ  (SI)(DX*4), R8
	LEAQ  (R8)(R12*4), R9
	LEAQ  (R9)(R12*4), R10
	XORQ  AX, AX

col:
	CMPQ AX, q+56(FP)
	JGE  rowEnd
	CMPQ AX, lo+80(FP)
	JEQ  vector

	// Halo column ow: BX = ow·str, tap 0's offset from the row
	// registers; DX walks its input columns iw = ow·str−pad+s, and SI
	// collects the taps whose column is in [0, w) and whose row is in
	// range.
	MOVQ  AX, BX
	IMULQ R13, BX
	MOVQ  BX, DX
	SUBQ  pad+48(FP), DX
	XORQ  SI, SI
	CMPQ  DX, R12
	JCC   hcol1
	ORQ   $0x049, SI

hcol1:
	INCQ DX
	CMPQ DX, R12
	JCC  hcol2
	ORQ  $0x092, SI

hcol2:
	INCQ DX
	CMPQ DX, R12
	JCC  hcol3
	ORQ  $0x124, SI

hcol3:
	ANDQ   R11, SI
	VXORPS X9, X9, X9
	HALO(0, 0, R8, X0, ht0)
	HALO(1, 4, R8, X1, ht1)
	HALO(2, 8, R8, X2, ht2)
	HALO(3, 0, R9, X3, ht3)
	HALO(4, 4, R9, X4, ht4)
	HALO(5, 8, R9, X5, ht5)
	HALO(6, 0, R10, X6, ht6)
	HALO(7, 4, R10, X7, ht7)
	HALO(8, 8, R10, X8, ht8)
	VMOVSS X9, (DI)(AX*4)
	INCQ   AX
	JMP    col

vector:
	MOVQ hi+88(FP), DX
	SUBQ $8, DX
	CMPQ R13, $1
	JNE  stride2
	CMPQ R11, $0x1ff
	JEQ  s1
	BLOCKS(s1edge, ROWS_S1_EDGE, STORE_S1)
	BLOCKS(s1, ROWS_S1, STORE_S1)

stride2:
	CMPQ R11, $0x1ff
	JEQ  s2
	BLOCKS(s2edge, ROWS_S2_EDGE, STORE_S2)
	BLOCKS(s2, ROWS_S2, STORE_S2)

vdone:
	MOVQ hi+88(FP), AX
	JMP  col

rowEnd:
	MOVQ q+56(FP), BX
	LEAQ (DI)(BX*4), DI
	INCQ CX
	JMP  row

done:
	VZEROUPPER
	RET
