#include "textflag.h"

// The AVX2 vector body of the V_k=8 main micro-kernel (Algorithm 3).
//
// The accumulator file is the Go bodies' accFile8 unchanged: output
// column ow is acc[2ow], acc[2ow+1] — eight contiguous float32 lanes,
// one YMM register. Per filter tap the body loads one 8-lane filter
// vector from the [rows][S][8] block, broadcasts each input scalar of
// the tap's window and issues one VFMADD231PS: acc = fma(f, x, acc), one
// rounding per lane, the chain the looped kernel12x8 computes with
// fma32, so the stored bits equal the oracle's. A separate multiply and
// add would round twice and break that contract, so none is used.
//
// Register map:
//	Y0–Y11  accumulators, column ow in Y<ow>
//	Y12     filter vector of the current tap
//	Y13     broadcast input scalar
//	DI      acc            SI  current row base     DX  filter cursor
//	CX      rows left      R8  S                    R9  taps left in the row
//	R10     row pitch (B)  R11/R12/R13  1×/3×/5× column stride (B)
//	AX      tap window: column 0 of this tap        BX  AX + 6 column strides
//
// Column ow of a tap is read at AX + ow·stride: columns 0–5 off AX and
// 6–11 off BX, each with index 0, 1×, 2×, 3×, 4×, 5× stride.

#define COL0  VBROADCASTSS (AX), Y13;        VFMADD231PS Y12, Y13, Y0
#define COL1  VBROADCASTSS (AX)(R11*1), Y13; VFMADD231PS Y12, Y13, Y1
#define COL2  VBROADCASTSS (AX)(R11*2), Y13; VFMADD231PS Y12, Y13, Y2
#define COL3  VBROADCASTSS (AX)(R12*1), Y13; VFMADD231PS Y12, Y13, Y3
#define COL4  VBROADCASTSS (AX)(R11*4), Y13; VFMADD231PS Y12, Y13, Y4
#define COL5  VBROADCASTSS (AX)(R13*1), Y13; VFMADD231PS Y12, Y13, Y5
#define COL6  VBROADCASTSS (BX), Y13;        VFMADD231PS Y12, Y13, Y6
#define COL7  VBROADCASTSS (BX)(R11*1), Y13; VFMADD231PS Y12, Y13, Y7
#define COL8  VBROADCASTSS (BX)(R11*2), Y13; VFMADD231PS Y12, Y13, Y8
#define COL9  VBROADCASTSS (BX)(R12*1), Y13; VFMADD231PS Y12, Y13, Y9
#define COL10 VBROADCASTSS (BX)(R11*4), Y13; VFMADD231PS Y12, Y13, Y10
#define COL11 VBROADCASTSS (BX)(R13*1), Y13; VFMADD231PS Y12, Y13, Y11

#define COLS1  COL0
#define COLS2  COLS1; COL1
#define COLS3  COLS2; COL2
#define COLS4  COLS3; COL3
#define COLS5  COLS4; COL4
#define COLS6  COLS5; COL5
#define COLS7  COLS6; COL6
#define COLS8  COLS7; COL7
#define COLS9  COLS8; COL8
#define COLS10 COLS9; COL9
#define COLS11 COLS10; COL10
#define COLS12 COLS11; COL11

// NEST is the rows × S loop nest over one fixed column count; it never
// touches a column at or past that count. The filter cursor runs
// straight through the block: taps are contiguous across rows. Each nest
// is entered by a jump, so the padding that starts the row loop on a
// 64-byte line never executes, and the tap loop head sits six bytes into
// that same line: both heads keep one placement whatever code moves
// around them.
#define NEST(row, tap, COLS) \
	PCALIGN $64; \
row: \
	MOVQ SI, AX; \
	MOVQ R8, R9; \
tap: \
	VMOVUPS (DX), Y12; \
	LEAQ (AX)(R12*2), BX; \
	COLS; \
	ADDQ $32, DX; \
	ADDQ $4, AX; \
	DECQ R9; \
	JNZ tap; \
	ADDQ R10, SI; \
	DECQ CX; \
	JNZ row; \
	JMP store

// func kernel12x8AVX2(acc *accFile8, buf, tf *float32, rows, s, str, pitch, vwEff int)
//
// The caller guarantees rows, s ≥ 1, 1 ≤ vwEff ≤ 12 and that the last
// element each operand is read at — buf[(rows-1)·pitch+(vwEff-1)·str+s-1],
// tf[rows·s·8-1] — is in bounds.
TEXT ·kernel12x8AVX2(SB), NOSPLIT, $0-64
	MOVQ acc+0(FP), DI
	MOVQ buf+8(FP), SI
	MOVQ tf+16(FP), DX
	MOVQ rows+24(FP), CX
	MOVQ s+32(FP), R8
	MOVQ str+40(FP), R11
	MOVQ pitch+48(FP), R10
	MOVQ vwEff+56(FP), BX
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ (R11)(R11*2), R12
	LEAQ (R11)(R11*4), R13

	// Columns past vwEff are loaded and stored back untouched.
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	VMOVUPS 256(DI), Y8
	VMOVUPS 288(DI), Y9
	VMOVUPS 320(DI), Y10
	VMOVUPS 352(DI), Y11

	CMPQ BX, $12
	JEQ  w12
	CMPQ BX, $11
	JEQ  w11
	CMPQ BX, $10
	JEQ  w10
	CMPQ BX, $9
	JEQ  w9
	CMPQ BX, $8
	JEQ  w8
	CMPQ BX, $7
	JEQ  w7
	CMPQ BX, $6
	JEQ  w6
	CMPQ BX, $5
	JEQ  w5
	CMPQ BX, $4
	JEQ  w4
	CMPQ BX, $3
	JEQ  w3
	CMPQ BX, $2
	JEQ  w2
	CMPQ BX, $1
	JEQ  w1
	JMP  done

	NEST(w12, t12, COLS12)
	NEST(w11, t11, COLS11)
	NEST(w10, t10, COLS10)
	NEST(w9, t9, COLS9)
	NEST(w8, t8, COLS8)
	NEST(w7, t7, COLS7)
	NEST(w6, t6, COLS6)
	NEST(w5, t5, COLS5)
	NEST(w4, t4, COLS4)
	NEST(w3, t3, COLS3)
	NEST(w2, t2, COLS2)
	NEST(w1, t1, COLS1)

store:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VMOVUPS Y8, 256(DI)
	VMOVUPS Y9, 288(DI)
	VMOVUPS Y10, 320(DI)
	VMOVUPS Y11, 352(DI)
done:
	VZEROUPPER
	RET

// The AVX-512 paired body: kernel12x8AVX2 over two adjacent V_k=8
// K-blocks in one pass. Lane l of zmm column ow is block 0's channel l
// for l < 8 and block 1's channel l-8 above, so the register tile is
// 12 columns × 16 channels. Per tap the body loads block 0's 8-lane
// filter vector into the low half of Z12 and block 1's, tfOff bytes
// further on, into the high half, then runs the AVX2 body's column
// sequence on zmm: VBROADCASTSS, VFMADD231PS — the same single rounding
// in the same (row, tap) order per lane, so each half stores exactly the
// bits kernel12x8AVX2 stores for its block. Only AVX512F instructions
// are used. It serves a tile's last two or three K-blocks; four or more
// run on kernel12x32AVX512.
//
// Register map:
//	Z0–Z11  accumulators, column ow in Z<ow>: acc[0] column ow in the
//	        low 256 bits, acc[1] column ow in the high 256
//	Z12     filter vectors of the current tap, block 0 low, block 1 high
//	Z13     broadcast input scalar
//	DI      acc (entry and exit), block 1's filter offset tfOff (B) in the loops
//	SI, DX, CX, R8–R13, AX, BX  as kernel12x8AVX2

#define ZCOL0  VBROADCASTSS (AX), Z13;        VFMADD231PS Z12, Z13, Z0
#define ZCOL1  VBROADCASTSS (AX)(R11*1), Z13; VFMADD231PS Z12, Z13, Z1
#define ZCOL2  VBROADCASTSS (AX)(R11*2), Z13; VFMADD231PS Z12, Z13, Z2
#define ZCOL3  VBROADCASTSS (AX)(R12*1), Z13; VFMADD231PS Z12, Z13, Z3
#define ZCOL4  VBROADCASTSS (AX)(R11*4), Z13; VFMADD231PS Z12, Z13, Z4
#define ZCOL5  VBROADCASTSS (AX)(R13*1), Z13; VFMADD231PS Z12, Z13, Z5
#define ZCOL6  VBROADCASTSS (BX), Z13;        VFMADD231PS Z12, Z13, Z6
#define ZCOL7  VBROADCASTSS (BX)(R11*1), Z13; VFMADD231PS Z12, Z13, Z7
#define ZCOL8  VBROADCASTSS (BX)(R11*2), Z13; VFMADD231PS Z12, Z13, Z8
#define ZCOL9  VBROADCASTSS (BX)(R12*1), Z13; VFMADD231PS Z12, Z13, Z9
#define ZCOL10 VBROADCASTSS (BX)(R11*4), Z13; VFMADD231PS Z12, Z13, Z10
#define ZCOL11 VBROADCASTSS (BX)(R13*1), Z13; VFMADD231PS Z12, Z13, Z11

#define ZCOLS1  ZCOL0
#define ZCOLS2  ZCOLS1; ZCOL1
#define ZCOLS3  ZCOLS2; ZCOL2
#define ZCOLS4  ZCOLS3; ZCOL3
#define ZCOLS5  ZCOLS4; ZCOL4
#define ZCOLS6  ZCOLS5; ZCOL5
#define ZCOLS7  ZCOLS6; ZCOL6
#define ZCOLS8  ZCOLS7; ZCOL7
#define ZCOLS9  ZCOLS8; ZCOL8
#define ZCOLS10 ZCOLS9; ZCOL9
#define ZCOLS11 ZCOLS10; ZCOL10
#define ZCOLS12 ZCOLS11; ZCOL11

// ZNEST is NEST with the paired filter load.
#define ZNEST(row, tap, COLS) \
	PCALIGN $64; \
row: \
	MOVQ SI, AX; \
	MOVQ R8, R9; \
tap: \
	VMOVUPS (DX), Y12; \
	VINSERTF64X4 $1, (DX)(DI*1), Z12, Z12; \
	LEAQ (AX)(R12*2), BX; \
	COLS; \
	ADDQ $32, DX; \
	ADDQ $4, AX; \
	DECQ R9; \
	JNZ tap; \
	ADDQ R10, SI; \
	DECQ CX; \
	JNZ row; \
	JMP pstore

// Column ow of both accumulator files: acc[0] at off, acc[1] 384 bytes on.
#define ZLOAD(off, Z, Y) VMOVUPS off(DI), Y; VINSERTF64X4 $1, 384+off(DI), Z, Z
#define ZSTORE(off, Z, Y) VMOVUPS Y, off(DI); VEXTRACTF64X4 $1, Z, 384+off(DI)

// func kernel12x16AVX512(acc *accTile, buf, tf *float32, tfOff, rows, s, str, pitch, vwEff int)
//
// The caller guarantees what kernel12x8AVX2 requires, with tfOff ≥ 0 and
// tf[tfOff+rows·s·8-1] in bounds.
TEXT ·kernel12x16AVX512(SB), NOSPLIT, $0-72
	MOVQ acc+0(FP), DI
	MOVQ buf+8(FP), SI
	MOVQ tf+16(FP), DX
	MOVQ rows+32(FP), CX
	MOVQ s+40(FP), R8
	MOVQ str+48(FP), R11
	MOVQ pitch+56(FP), R10
	MOVQ vwEff+64(FP), BX
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ (R11)(R11*2), R12
	LEAQ (R11)(R11*4), R13

	// Columns past vwEff are loaded and stored back untouched.
	ZLOAD(0, Z0, Y0)
	ZLOAD(32, Z1, Y1)
	ZLOAD(64, Z2, Y2)
	ZLOAD(96, Z3, Y3)
	ZLOAD(128, Z4, Y4)
	ZLOAD(160, Z5, Y5)
	ZLOAD(192, Z6, Y6)
	ZLOAD(224, Z7, Y7)
	ZLOAD(256, Z8, Y8)
	ZLOAD(288, Z9, Y9)
	ZLOAD(320, Z10, Y10)
	ZLOAD(352, Z11, Y11)
	MOVQ tfOff+24(FP), DI
	SHLQ $2, DI

	CMPQ BX, $12
	JEQ  p12
	CMPQ BX, $11
	JEQ  p11
	CMPQ BX, $10
	JEQ  p10
	CMPQ BX, $9
	JEQ  p9
	CMPQ BX, $8
	JEQ  p8
	CMPQ BX, $7
	JEQ  p7
	CMPQ BX, $6
	JEQ  p6
	CMPQ BX, $5
	JEQ  p5
	CMPQ BX, $4
	JEQ  p4
	CMPQ BX, $3
	JEQ  p3
	CMPQ BX, $2
	JEQ  p2
	CMPQ BX, $1
	JEQ  p1
	JMP  pdone

	ZNEST(p12, q12, ZCOLS12)
	ZNEST(p11, q11, ZCOLS11)
	ZNEST(p10, q10, ZCOLS10)
	ZNEST(p9, q9, ZCOLS9)
	ZNEST(p8, q8, ZCOLS8)
	ZNEST(p7, q7, ZCOLS7)
	ZNEST(p6, q6, ZCOLS6)
	ZNEST(p5, q5, ZCOLS5)
	ZNEST(p4, q4, ZCOLS4)
	ZNEST(p3, q3, ZCOLS3)
	ZNEST(p2, q2, ZCOLS2)
	ZNEST(p1, q1, ZCOLS1)

pstore:
	MOVQ acc+0(FP), DI
	ZSTORE(0, Z0, Y0)
	ZSTORE(32, Z1, Y1)
	ZSTORE(64, Z2, Y2)
	ZSTORE(96, Z3, Y3)
	ZSTORE(128, Z4, Y4)
	ZSTORE(160, Z5, Y5)
	ZSTORE(192, Z6, Y6)
	ZSTORE(224, Z7, Y7)
	ZSTORE(256, Z8, Y8)
	ZSTORE(288, Z9, Y9)
	ZSTORE(320, Z10, Y10)
	ZSTORE(352, Z11, Y11)
pdone:
	VZEROUPPER
	RET

// The AVX-512 four-block body: kernel12x16AVX512 over four adjacent
// V_k=8 K-blocks in one pass — the 12×32 register tile Equation 3 allows
// on 32 vector registers: 24 accumulators, two filter registers and one
// broadcast, 24+2+1 ≤ 32. Blocks 0 and 1 pair up in Z0–Z11 exactly as in
// the paired body, blocks 2 and 3 in Z12–Z23. Per tap the body loads the
// four blocks' filter vectors (block b tfOff·b bytes on) into Z24 (0 low,
// 1 high) and Z25 (2 low, 3 high), then per column issues one broadcast
// and two VFMADD231PS: 12 broadcasts for 24 fused multiply-adds, the same
// single rounding in the same (row, tap) order per lane, so each quarter
// stores exactly the bits kernel12x8AVX2 stores for its block. Only
// AVX512F instructions are used (registers 16–31 are reached through
// zmm forms only).
//
// Register map:
//	Z0–Z11  accumulators of blocks 0 | 1, column ow in Z<ow>
//	Z12–Z23 accumulators of blocks 2 | 3, column ow in Z<12+ow>
//	Z24     filter vectors of the current tap, block 0 low, block 1 high
//	Z25     filter vectors of the current tap, block 2 low, block 3 high
//	Z26     broadcast input scalar
//	DI      acc (entry and exit), tfOff (B) in the loops
//	SI, DX, CX, R8–R13, AX, BX  as kernel12x8AVX2; BX first addresses
//	        block 2's filter vector

#define QCOL0  VBROADCASTSS (AX), Z26;        VFMADD231PS Z24, Z26, Z0;  VFMADD231PS Z25, Z26, Z12
#define QCOL1  VBROADCASTSS (AX)(R11*1), Z26; VFMADD231PS Z24, Z26, Z1;  VFMADD231PS Z25, Z26, Z13
#define QCOL2  VBROADCASTSS (AX)(R11*2), Z26; VFMADD231PS Z24, Z26, Z2;  VFMADD231PS Z25, Z26, Z14
#define QCOL3  VBROADCASTSS (AX)(R12*1), Z26; VFMADD231PS Z24, Z26, Z3;  VFMADD231PS Z25, Z26, Z15
#define QCOL4  VBROADCASTSS (AX)(R11*4), Z26; VFMADD231PS Z24, Z26, Z4;  VFMADD231PS Z25, Z26, Z16
#define QCOL5  VBROADCASTSS (AX)(R13*1), Z26; VFMADD231PS Z24, Z26, Z5;  VFMADD231PS Z25, Z26, Z17
#define QCOL6  VBROADCASTSS (BX), Z26;        VFMADD231PS Z24, Z26, Z6;  VFMADD231PS Z25, Z26, Z18
#define QCOL7  VBROADCASTSS (BX)(R11*1), Z26; VFMADD231PS Z24, Z26, Z7;  VFMADD231PS Z25, Z26, Z19
#define QCOL8  VBROADCASTSS (BX)(R11*2), Z26; VFMADD231PS Z24, Z26, Z8;  VFMADD231PS Z25, Z26, Z20
#define QCOL9  VBROADCASTSS (BX)(R12*1), Z26; VFMADD231PS Z24, Z26, Z9;  VFMADD231PS Z25, Z26, Z21
#define QCOL10 VBROADCASTSS (BX)(R11*4), Z26; VFMADD231PS Z24, Z26, Z10; VFMADD231PS Z25, Z26, Z22
#define QCOL11 VBROADCASTSS (BX)(R13*1), Z26; VFMADD231PS Z24, Z26, Z11; VFMADD231PS Z25, Z26, Z23

#define QCOLS1  QCOL0
#define QCOLS2  QCOLS1; QCOL1
#define QCOLS3  QCOLS2; QCOL2
#define QCOLS4  QCOLS3; QCOL3
#define QCOLS5  QCOLS4; QCOL4
#define QCOLS6  QCOLS5; QCOL5
#define QCOLS7  QCOLS6; QCOL6
#define QCOLS8  QCOLS7; QCOL7
#define QCOLS9  QCOLS8; QCOL8
#define QCOLS10 QCOLS9; QCOL9
#define QCOLS11 QCOLS10; QCOL10
#define QCOLS12 QCOLS11; QCOL11

// QNEST is NEST with the four-block filter load.
#define QNEST(row, tap, COLS) \
	PCALIGN $64; \
row: \
	MOVQ SI, AX; \
	MOVQ R8, R9; \
tap: \
	VBROADCASTF64X4 (DX), Z24; \
	VINSERTF64X4 $1, (DX)(DI*1), Z24, Z24; \
	LEAQ (DX)(DI*2), BX; \
	VBROADCASTF64X4 (BX), Z25; \
	VINSERTF64X4 $1, (BX)(DI*1), Z25, Z25; \
	LEAQ (AX)(R12*2), BX; \
	COLS; \
	ADDQ $32, DX; \
	ADDQ $4, AX; \
	DECQ R9; \
	JNZ tap; \
	ADDQ R10, SI; \
	DECQ CX; \
	JNZ row; \
	JMP qstore

// Column ow of a block pair's accumulator files: the even block at off,
// the odd one 384 bytes on.
#define QLOAD(off, Z) VBROADCASTF64X4 off(DI), Z; VINSERTF64X4 $1, 384+off(DI), Z, Z
#define QSTORE(off, Z) VEXTRACTF64X4 $0, Z, off(DI); VEXTRACTF64X4 $1, Z, 384+off(DI)

// func kernel12x32AVX512(acc *accTile, buf, tf *float32, tfOff, rows, s, str, pitch, vwEff int)
//
// The caller guarantees what kernel12x8AVX2 requires, with tfOff ≥ 0 and
// tf[3·tfOff+rows·s·8-1] in bounds.
TEXT ·kernel12x32AVX512(SB), NOSPLIT, $0-72
	MOVQ acc+0(FP), DI
	MOVQ buf+8(FP), SI
	MOVQ tf+16(FP), DX
	MOVQ rows+32(FP), CX
	MOVQ s+40(FP), R8
	MOVQ str+48(FP), R11
	MOVQ pitch+56(FP), R10
	MOVQ vwEff+64(FP), BX
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ (R11)(R11*2), R12
	LEAQ (R11)(R11*4), R13

	// Columns past vwEff are loaded and stored back untouched.
	QLOAD(0, Z0)
	QLOAD(32, Z1)
	QLOAD(64, Z2)
	QLOAD(96, Z3)
	QLOAD(128, Z4)
	QLOAD(160, Z5)
	QLOAD(192, Z6)
	QLOAD(224, Z7)
	QLOAD(256, Z8)
	QLOAD(288, Z9)
	QLOAD(320, Z10)
	QLOAD(352, Z11)
	QLOAD(768, Z12)
	QLOAD(800, Z13)
	QLOAD(832, Z14)
	QLOAD(864, Z15)
	QLOAD(896, Z16)
	QLOAD(928, Z17)
	QLOAD(960, Z18)
	QLOAD(992, Z19)
	QLOAD(1024, Z20)
	QLOAD(1056, Z21)
	QLOAD(1088, Z22)
	QLOAD(1120, Z23)
	MOVQ tfOff+24(FP), DI
	SHLQ $2, DI

	CMPQ BX, $12
	JEQ  u12
	CMPQ BX, $11
	JEQ  u11
	CMPQ BX, $10
	JEQ  u10
	CMPQ BX, $9
	JEQ  u9
	CMPQ BX, $8
	JEQ  u8
	CMPQ BX, $7
	JEQ  u7
	CMPQ BX, $6
	JEQ  u6
	CMPQ BX, $5
	JEQ  u5
	CMPQ BX, $4
	JEQ  u4
	CMPQ BX, $3
	JEQ  u3
	CMPQ BX, $2
	JEQ  u2
	CMPQ BX, $1
	JEQ  u1
	JMP  qdone

	QNEST(u12, v12, QCOLS12)
	QNEST(u11, v11, QCOLS11)
	QNEST(u10, v10, QCOLS10)
	QNEST(u9, v9, QCOLS9)
	QNEST(u8, v8, QCOLS8)
	QNEST(u7, v7, QCOLS7)
	QNEST(u6, v6, QCOLS6)
	QNEST(u5, v5, QCOLS5)
	QNEST(u4, v4, QCOLS4)
	QNEST(u3, v3, QCOLS3)
	QNEST(u2, v2, QCOLS2)
	QNEST(u1, v1, QCOLS1)

qstore:
	MOVQ acc+0(FP), DI
	QSTORE(0, Z0)
	QSTORE(32, Z1)
	QSTORE(64, Z2)
	QSTORE(96, Z3)
	QSTORE(128, Z4)
	QSTORE(160, Z5)
	QSTORE(192, Z6)
	QSTORE(224, Z7)
	QSTORE(256, Z8)
	QSTORE(288, Z9)
	QSTORE(320, Z10)
	QSTORE(352, Z11)
	QSTORE(768, Z12)
	QSTORE(800, Z13)
	QSTORE(832, Z14)
	QSTORE(864, Z15)
	QSTORE(896, Z16)
	QSTORE(928, Z17)
	QSTORE(960, Z18)
	QSTORE(992, Z19)
	QSTORE(1024, Z20)
	QSTORE(1056, Z21)
	QSTORE(1088, Z22)
	QSTORE(1120, Z23)
qdone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
