//go:build !purego

#include "textflag.h"

// AVX2 quantizer step, lanes = blocks, and the transposes that put blocks
// in lanes. See simd.go for the layout and for why every lane computes
// exactly what the Go kernels compute.
//
// One unit is 8 lanes of one cell: the float32 side (prediction, blend)
// runs 8 wide in one ymm, the float64 side (residual, divide, round,
// reconstruct, bound check) as two 4-wide halves. The units of a cell
// are adjacent in every array, so a row of nz cells is nz*LANES/8 trips
// of one loop body, and LANES appears only in CELL and in that count.
// No FMA anywhere: the Go kernels round the product before the sum.

#define LANES 16       // simdLanes in simd.go
#define CELL (LANES*4) // bytes of one cell of an interleaved array
#define UNITS_SHIFT 1  // log2(LANES/8)

DATA absmask<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL absmask<>(SB), RODATA|NOPTR, $8
// The largest float64 below 0.5.
DATA underhalf<>+0(SB)/8, $0x3FDFFFFFFFFFFFFF
GLOBL underhalf<>(SB), RODATA|NOPTR, $8
DATA signbit32<>+0(SB)/4, $0x80000000
GLOBL signbit32<>(SB), RODATA|NOPTR, $4

// Constant registers of the encode step, loaded by ENC_CONSTS from the
// arguments named twoEB, eb and radius:
//   Y15 twoEB   Y14 eb   Y13 float64(radius)   Y12 |x| mask
//   Y10 underhalf   Y9 radius as 8 × int32
#define ENC_CONSTS(twoEB, eb, radius) \
	VBROADCASTSD twoEB, Y15; \
	VBROADCASTSD eb, Y14; \
	MOVL radius, AX; \
	VMOVQ AX, X9; \
	VCVTDQ2PD X9, Y13; \
	VBROADCASTSD X13, Y13; \
	VPBROADCASTD X9, Y9; \
	VBROADCASTSD absmask<>(SB), Y12; \
	VBROADCASTSD underhalf<>(SB), Y10

// QHALF quantizes four lanes. In: v and pred as float64. Out:
// r = round-half-away((v-pred)/twoEB) as float64, rr (an xmm) =
// float32(pred + 0 + twoEB*r), ok = all-ones in the lanes where
// |r| < radius and |v - rr| <= eb (ordered compares: a NaN fails). t is
// scratch; pred is left as pred + 0; z is rr's ymm, zeroed for the + 0
// before rr is written. Rounding half away from zero is
// trunc(q + copysign(underhalf, q)), exact for every float64
// (TestRoundHalfAwayByTrunc). The + 0 makes a -0 prediction +0, so that a
// -0 step reconstructs as the decoder's +0 step does (kernel.go, dqstep).
#define QHALF(v, pred, r, rr, ok, t, z) \
	VSUBPD pred, v, r; \
	VXORPD z, z, z; \
	VADDPD z, pred, pred; \
	VDIVPD Y15, r, r; \
	VANDNPD r, Y12, t; \
	VORPD Y10, t, t; \
	VADDPD t, r, r; \
	VROUNDPD $0x0B, r, r; \
	VANDPD Y12, r, ok; \
	VCMPPD $0x11, Y13, ok, ok; \
	VMULPD r, Y15, t; \
	VADDPD t, pred, t; \
	VCVTPD2PSY t, rr; \
	VCVTPS2PD rr, t; \
	VSUBPD t, v, t; \
	VANDPD Y12, t, t; \
	VCMPPD $0x12, Y14, t, t; \
	VANDPD t, ok, ok

// QUANT8 is the encode step on one unit. In: Y0 = v, Y1 = pred, 8 ×
// float32. Out: Y0 = reconstruction (v itself where the code is the
// literal marker 0), Y6 = codes. Clobbers Y1-Y8 and Y11. A conversion of
// an out-of-range r yields 0x80000000, which the mask then clears.
#define QUANT8 \
	VCVTPS2PD X0, Y2; \
	VCVTPS2PD X1, Y4; \
	QHALF(Y2, Y4, Y6, X7, Y8, Y3, Y7); \
	VCVTTPD2DQY Y6, X6; \
	VEXTRACTF128 $1, Y0, X2; \
	VCVTPS2PD X2, Y2; \
	VEXTRACTF128 $1, Y1, X3; \
	VCVTPS2PD X3, Y3; \
	QHALF(Y2, Y3, Y4, X1, Y5, Y11, Y1); \
	VCVTTPD2DQY Y4, X4; \
	VINSERTF128 $1, X1, Y7, Y7; \
	VINSERTI128 $1, X4, Y6, Y6; \
	VSHUFPS $0x88, Y5, Y8, Y8; \
	VPERMPD $0xD8, Y8, Y8; \
	VPADDD Y9, Y6, Y6; \
	VPAND Y8, Y6, Y6; \
	VBLENDVPS Y8, Y7, Y0, Y0

// LORENZO8 is the seven-term prediction of one unit into Y1, in the
// reference's order fx+fy+fz-fxy-fxz-fyz+fxyz, from the haloed
// reconstruction at DX: R8, R9 and R10 hold -sy, -sx and -sx-sy in bytes.
#define LORENZO8 \
	VMOVUPS (DX)(R9*1), Y1; \
	VADDPS (DX)(R8*1), Y1, Y1; \
	VADDPS -CELL(DX), Y1, Y1; \
	VSUBPS (DX)(R10*1), Y1, Y1; \
	VSUBPS -CELL(DX)(R9*1), Y1, Y1; \
	VSUBPS -CELL(DX)(R8*1), Y1, Y1; \
	VADDPS -CELL(DX)(R10*1), Y1, Y1

// LORENZO_STRIDES loads R8-R10 as above and R13 with the units of a row.
#define LORENZO_STRIDES(ny, nz) \
	MOVQ nz, R13; \
	LEAQ 1(R13), R8; \
	SHLQ $UNITS_SHIFT, R13; \
	IMULQ $CELL, R8; \
	MOVQ ny, R9; \
	INCQ R9; \
	IMULQ R8, R9; \
	NEGQ R8; \
	NEGQ R9; \
	LEAQ (R8)(R9*1), R10

// func lorenzoEncodeAVX2(src, halo, recon *float32, codes *uint32, nx, ny, nz int, twoEB, eb float64, radius uint32)
//
// src, recon and codes are [cell][LANES]. halo points at cell (0,0,0) of
// the haloed reconstruction the prediction reads, [(nx+1)(ny+1)(nz+1)]
// [LANES]; recon receives the same values without the halo.
TEXT ·lorenzoEncodeAVX2(SB), NOSPLIT, $0-76
	MOVQ src+0(FP), SI
	MOVQ halo+8(FP), DX
	MOVQ recon+16(FP), BX
	MOVQ codes+24(FP), DI
	ENC_CONSTS(twoEB+56(FP), eb+64(FP), radius+72(FP))
	LORENZO_STRIDES(ny+40(FP), nz+48(FP))
	MOVQ nx+32(FP), R11
encx:
	MOVQ ny+40(FP), R12
ency:
	MOVQ R13, CX
encunit:
	VMOVUPS (SI), Y0
	LORENZO8
	QUANT8
	VMOVDQU Y6, (DI)
	VMOVUPS Y0, (DX)
	VMOVUPS Y0, (BX)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ $32, BX
	DECQ CX
	JNZ encunit
	ADDQ $CELL, DX // over the z = -1 halo cell of the next row
	DECQ R12
	JNZ ency
	SUBQ R8, DX // over the y = -1 halo row of the next plane
	DECQ R11
	JNZ encx
	VZEROUPPER
	RET

// func temporalEncodeAVX2(src, ref, recon *float32, codes *uint32, units int, twoEB, eb float64, radius uint32)
//
// Plain arrays of 8*units cells; every cell is predicted by ref alone.
TEXT ·temporalEncodeAVX2(SB), NOSPLIT, $0-60
	MOVQ src+0(FP), SI
	MOVQ ref+8(FP), BX
	MOVQ recon+16(FP), DX
	MOVQ codes+24(FP), DI
	MOVQ units+32(FP), CX
	ENC_CONSTS(twoEB+40(FP), eb+48(FP), radius+56(FP))
tencunit:
	VMOVUPS (SI), Y0
	VMOVUPS (BX), Y1
	QUANT8
	VMOVDQU Y6, (DI)
	VMOVUPS Y0, (DX)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ CX
	JNZ tencunit
	VZEROUPPER
	RET

// DEQUANT8 is the decode step on one unit. In: Y0 = codes, Y1 = pred.
// Out: Y5 = float32(pred + twoEB*float64(int64(c)-radius)), Y2 = all-ones
// in the lanes whose code is the literal marker. Y15 holds twoEB, Y14 the
// bias 2^31-radius, Y13 the int32 sign bit, Y12 zero: c^signbit read as an
// int32 is c-2^31, exact in float64, and adding the bias is exact too, so
// every uint32 code dequantizes as in Go, corrupt ones included.
#define DEQUANT8 \
	VPCMPEQD Y12, Y0, Y2; \
	VPXOR Y13, Y0, Y0; \
	VCVTDQ2PD X0, Y3; \
	VEXTRACTI128 $1, Y0, X4; \
	VCVTDQ2PD X4, Y4; \
	VADDPD Y14, Y3, Y3; \
	VADDPD Y14, Y4, Y4; \
	VMULPD Y3, Y15, Y3; \
	VMULPD Y4, Y15, Y4; \
	VCVTPS2PD X1, Y5; \
	VEXTRACTF128 $1, Y1, X6; \
	VCVTPS2PD X6, Y6; \
	VADDPD Y3, Y5, Y5; \
	VADDPD Y4, Y6, Y6; \
	VCVTPD2PSY Y5, X5; \
	VCVTPD2PSY Y6, X6; \
	VINSERTF128 $1, X6, Y5, Y5

#define DEC_CONSTS(twoEB, bias) \
	VBROADCASTSD twoEB, Y15; \
	VBROADCASTSD bias, Y14; \
	VPBROADCASTD signbit32<>(SB), Y13; \
	VPXOR Y12, Y12, Y12

// func lorenzoDecodeAVX2(halo, recon *float32, codes *uint32, nx, ny, nz int, twoEB, bias float64, lits *byte, cursors *int)
//
// Layouts as in lorenzoEncodeAVX2. cursors[lane] is the offset into lits
// of that lane's next literal; the caller has checked that the pool holds
// one literal per marker of every lane.
TEXT ·lorenzoDecodeAVX2(SB), NOSPLIT, $24-80
	MOVQ halo+0(FP), DX
	MOVQ recon+8(FP), SI
	MOVQ codes+16(FP), DI
	DEC_CONSTS(twoEB+48(FP), bias+56(FP))
	LORENZO_STRIDES(ny+32(FP), nz+40(FP))
	MOVQ nx+24(FP), R11
decx:
	MOVQ ny+32(FP), R12
decy:
	MOVQ R13, CX
decunit:
	VMOVDQU (DI), Y0
	LORENZO8
	DEQUANT8
	VMOVUPS Y5, (DX)
	VMOVUPS Y5, (SI)
	VMOVMSKPS Y2, AX
	TESTL AX, AX
	JNZ declits
decnext:
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ $32, SI
	DECQ CX
	JNZ decunit
	ADDQ $CELL, DX
	DECQ R12
	JNZ decy
	SUBQ R8, DX
	DECQ R11
	JNZ decx
	VZEROUPPER
	RET
declits:
	// Patch the marked lanes from their own cursors, with three loop
	// registers spilled for the ones it takes. The unit's first lane
	// follows from how far into the code array it sits.
	MOVQ R11, 0(SP)
	MOVQ R12, 8(SP)
	MOVQ R13, 16(SP)
	MOVQ DI, BX
	SUBQ codes+16(FP), BX
	SHRQ $2, BX
	ANDQ $(LANES-8), BX
	MOVQ cursors+72(FP), R13
	LEAQ (R13)(BX*8), R13
	MOVQ lits+64(FP), BX
declit:
	BSFL AX, R11
	BTRL R11, AX
	MOVQ (R13)(R11*8), R12
	ADDQ $4, (R13)(R11*8)
	MOVL (BX)(R12*1), R12
	MOVL R12, (DX)(R11*4)
	MOVL R12, (SI)(R11*4)
	TESTL AX, AX
	JNZ declit
	MOVQ 0(SP), R11
	MOVQ 8(SP), R12
	MOVQ 16(SP), R13
	JMP decnext

// func temporalDecodeAVX2(out, ref *float32, codes *uint32, units int, twoEB, bias float64, lits *byte) (used int)
//
// Plain arrays of 8*units cells; out may be ref. The literals of one
// block are consumed in cell order from lits; used is the bytes taken.
TEXT ·temporalDecodeAVX2(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DX
	MOVQ ref+8(FP), SI
	MOVQ codes+16(FP), DI
	MOVQ units+24(FP), CX
	MOVQ lits+48(FP), BX
	XORQ R9, R9
	DEC_CONSTS(twoEB+32(FP), bias+40(FP))
tdecunit:
	VMOVDQU (DI), Y0
	VMOVUPS (SI), Y1
	DEQUANT8
	VMOVUPS Y5, (DX)
	VMOVMSKPS Y2, AX
	TESTL AX, AX
	JNZ tdeclit
tdecnext:
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ CX
	JNZ tdecunit
	MOVQ R9, used+56(FP)
	VZEROUPPER
	RET
tdeclit:
	BSFL AX, R10
	BTRL R10, AX
	MOVL (BX)(R9*1), R11
	MOVL R11, (DX)(R10*4)
	ADDQ $4, R9
	TESTL AX, AX
	JNZ tdeclit
	JMP tdecnext

// TRANSPOSE8 transposes the 8×8 32-bit words of Y0-Y7, one row a
// register, into Y8-Y15.
#define TRANSPOSE8 \
	VUNPCKLPS Y1, Y0, Y8; \
	VUNPCKHPS Y1, Y0, Y9; \
	VUNPCKLPS Y3, Y2, Y10; \
	VUNPCKHPS Y3, Y2, Y11; \
	VUNPCKLPS Y5, Y4, Y12; \
	VUNPCKHPS Y5, Y4, Y13; \
	VUNPCKLPS Y7, Y6, Y14; \
	VUNPCKHPS Y7, Y6, Y15; \
	VSHUFPS $0x44, Y10, Y8, Y0; \
	VSHUFPS $0xEE, Y10, Y8, Y1; \
	VSHUFPS $0x44, Y11, Y9, Y2; \
	VSHUFPS $0xEE, Y11, Y9, Y3; \
	VSHUFPS $0x44, Y14, Y12, Y4; \
	VSHUFPS $0xEE, Y14, Y12, Y5; \
	VSHUFPS $0x44, Y15, Y13, Y6; \
	VSHUFPS $0xEE, Y15, Y13, Y7; \
	VPERM2F128 $0x20, Y4, Y0, Y8; \
	VPERM2F128 $0x20, Y5, Y1, Y9; \
	VPERM2F128 $0x20, Y6, Y2, Y10; \
	VPERM2F128 $0x20, Y7, Y3, Y11; \
	VPERM2F128 $0x31, Y4, Y0, Y12; \
	VPERM2F128 $0x31, Y5, Y1, Y13; \
	VPERM2F128 $0x31, Y6, Y2, Y14; \
	VPERM2F128 $0x31, Y7, Y3, Y15

// LANE_POINTERS loads the eight pointers at (BX) into the registers the
// two routines below address lanes through.
#define LANE_POINTERS \
	MOVQ 0(BX), AX; \
	MOVQ 8(BX), DX; \
	MOVQ 16(BX), SI; \
	MOVQ 24(BX), R8; \
	MOVQ 32(BX), R9; \
	MOVQ 40(BX), R10; \
	MOVQ 48(BX), R11; \
	MOVQ 56(BX), R12; \
	XORQ BX, BX

// func interleaveAVX2(dst *uint32, lanes *[8]*uint32, tiles int)
//
// Eight arrays of 8*tiles words become eight adjacent lanes of dst,
// [cell][LANES]: dst points at the first of them in cell 0.
TEXT ·interleaveAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ lanes+8(FP), BX
	MOVQ tiles+16(FP), CX
	LANE_POINTERS
iltile:
	VMOVDQU (AX)(BX*1), Y0
	VMOVDQU (DX)(BX*1), Y1
	VMOVDQU (SI)(BX*1), Y2
	VMOVDQU (R8)(BX*1), Y3
	VMOVDQU (R9)(BX*1), Y4
	VMOVDQU (R10)(BX*1), Y5
	VMOVDQU (R11)(BX*1), Y6
	VMOVDQU (R12)(BX*1), Y7
	TRANSPOSE8
	VMOVDQU Y8, 0*CELL(DI)
	VMOVDQU Y9, 1*CELL(DI)
	VMOVDQU Y10, 2*CELL(DI)
	VMOVDQU Y11, 3*CELL(DI)
	VMOVDQU Y12, 4*CELL(DI)
	VMOVDQU Y13, 5*CELL(DI)
	VMOVDQU Y14, 6*CELL(DI)
	VMOVDQU Y15, 7*CELL(DI)
	ADDQ $32, BX
	ADDQ $(8*CELL), DI
	DECQ CX
	JNZ iltile
	VZEROUPPER
	RET

// func deinterleaveAVX2(lanes *[8]*uint32, src *uint32, tiles int)
//
// The inverse of interleaveAVX2.
TEXT ·deinterleaveAVX2(SB), NOSPLIT, $0-24
	MOVQ lanes+0(FP), BX
	MOVQ src+8(FP), DI
	MOVQ tiles+16(FP), CX
	LANE_POINTERS
deiltile:
	VMOVDQU 0*CELL(DI), Y0
	VMOVDQU 1*CELL(DI), Y1
	VMOVDQU 2*CELL(DI), Y2
	VMOVDQU 3*CELL(DI), Y3
	VMOVDQU 4*CELL(DI), Y4
	VMOVDQU 5*CELL(DI), Y5
	VMOVDQU 6*CELL(DI), Y6
	VMOVDQU 7*CELL(DI), Y7
	TRANSPOSE8
	VMOVDQU Y8, (AX)(BX*1)
	VMOVDQU Y9, (DX)(BX*1)
	VMOVDQU Y10, (SI)(BX*1)
	VMOVDQU Y11, (R8)(BX*1)
	VMOVDQU Y12, (R9)(BX*1)
	VMOVDQU Y13, (R10)(BX*1)
	VMOVDQU Y14, (R11)(BX*1)
	VMOVDQU Y15, (R12)(BX*1)
	ADDQ $32, BX
	ADDQ $(8*CELL), DI
	DECQ CX
	JNZ deiltile
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
