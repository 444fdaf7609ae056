//go:build amd64

#include "textflag.h"

// func cvtAVX(dst []float64, src []float32)
// Widens len(src) float32s to float64 (conversion is exact, so any
// implementation produces identical bits).
TEXT ·cvtAVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   ctail_setup
cloop4:
	VCVTPS2PD (SI), Y1
	VMOVUPD   Y1, (DI)
	ADDQ $16, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  cloop4
ctail_setup:
	ANDQ $3, CX
	JZ   cdone
ctail:
	VCVTSS2SD (SI), X1, X1
	VMOVSD    X1, (DI)
	ADDQ $4, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  ctail
cdone:
	VZEROUPPER
	RET

// The two tile kernels below compute several output cells per pass while
// leaving each cell's arithmetic exactly that of the portable loops in
// attention.go: lane i of a score's YMM accumulator is scalar accumulator
// s_i, reduced as ((s0+s2)+(s1+s3)) then scaled; every V accumulator element
// is its own mul-then-add chain in ascending row order. No FMA.

// SCORE4 adds q-chunk (Y8) times the same chunk of four consecutive K rows
// into the four rows' accumulators.
#define SCORE4 \
	VMOVUPD (AX), Y8            \
	VMULPD  (SI), Y8, Y9        \
	VADDPD  Y9, Y0, Y0          \
	VMULPD  (SI)(R10*1), Y8, Y12 \
	VADDPD  Y12, Y1, Y1         \
	VMULPD  (SI)(R10*2), Y8, Y13 \
	VADDPD  Y13, Y2, Y2         \
	VMULPD  (SI)(R13*1), Y8, Y14 \
	VADDPD  Y14, Y3, Y3

// FOLD leaves [s0+s2, s1+s3] in the low half of acc.
#define FOLD(acc, xacc) \
	VEXTRACTF128 $1, acc, X9 \
	VADDPD       X9, xacc, xacc

// func scoreTileAVX(q, rows, scores, maxs *float64, group, n, dh, stride int, scale float64)
// For every head g of the group: scores[g*stride+j] = dot(q[g*dh:], rows[j*dh:])
// * scale for j < n, and maxs[g] = max(maxs[g], those scores) taken in row
// order (VMAXSD's operand order makes a NaN score leave the running max
// unchanged, matching the scalar compare). dh must be a positive multiple
// of 4, n at least 1. Rows go four at a time with the q chunk loaded once
// per pass, then the last n%4 rows one at a time.
TEXT ·scoreTileAVX(SB), NOSPLIT, $0-72
	MOVQ q+0(FP), R8
	MOVQ rows+8(FP), DI
	MOVQ scores+16(FP), R9
	MOVQ maxs+24(FP), R11
	MOVQ group+32(FP), R12
	MOVQ dh+48(FP), R10
	MOVQ stride+56(FP), BX
	VBROADCASTSD scale+64(FP), Y10
	SHLQ $3, R10            // row length in bytes
	LEAQ (R10)(R10*2), R13  // three rows
	SUBQ n+40(FP), BX
	SHLQ $3, BX             // bytes from the end of one head's stripe to the next
shead:
	VMOVSD (R11), X11       // running max
	MOVQ   DI, SI
	MOVQ   n+40(FP), CX
	CMPQ   CX, $4
	JL     srow1
srow4:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   R8, AX
	MOVQ   R10, DX
	SHRQ   $5, DX
sk4:
	SCORE4
	ADDQ $32, AX
	ADDQ $32, SI
	DECQ DX
	JNZ  sk4
	FOLD(Y0, X0)
	FOLD(Y1, X1)
	FOLD(Y2, X2)
	FOLD(Y3, X3)
	VHADDPD     X1, X0, X0    // [(s0+s2)+(s1+s3) of row 0, of row 1]
	VHADDPD     X3, X2, X2    // rows 2, 3
	VINSERTF128 $1, X2, Y0, Y0
	VMULPD      Y10, Y0, Y0
	VMOVUPD     Y0, (R9)
	VMAXSD      X11, X0, X11
	VPERMILPD   $1, X0, X9
	VMAXSD      X11, X9, X11
	VEXTRACTF128 $1, Y0, X9
	VMAXSD      X11, X9, X11
	VPERMILPD   $1, X9, X9
	VMAXSD      X11, X9, X11
	ADDQ $32, R9
	ADDQ R13, SI // the k loop ran SI across row 0; skip rows 1..3
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  srow4
srow1:
	TESTQ CX, CX
	JZ    sheadend
srow1loop:
	VXORPD Y0, Y0, Y0
	MOVQ   R8, AX
	MOVQ   R10, DX
	SHRQ   $5, DX
sk1:
	VMOVUPD (AX), Y8
	VMULPD  (SI), Y8, Y9
	VADDPD  Y9, Y0, Y0
	ADDQ $32, AX
	ADDQ $32, SI
	DECQ DX
	JNZ  sk1
	FOLD(Y0, X0)
	VHADDPD X0, X0, X0
	VMULSD  X10, X0, X0
	VMOVSD  X0, (R9)
	VMAXSD  X11, X0, X11
	ADDQ $8, R9
	DECQ CX
	JNZ  srow1loop
sheadend:
	VMOVSD X11, (R11)
	ADDQ $8, R11
	ADDQ R10, R8
	ADDQ BX, R9
	DECQ R12
	JNZ  shead
	VZEROUPPER
	RET

// PVHEAD broadcasts the row's weight; PVCOL adds weight × one 4-column chunk
// of the row into that chunk's accumulator register.
#define PVHEAD \
	VBROADCASTSD (AX), Y8
#define PVCOL(off, acc) \
	VMULPD off(SI), Y8, Y9 \
	VADDPD Y9, acc, acc

// func pvTileAVX(w, rows, acc, denom *float64, group, n, dh, stride int)
// For every head g of the group, with weights wg = w[g*stride:][:n]:
// denom[g] += wg[j] and acc[g*dh+d] += wg[j]*rows[j*dh+d], both in ascending
// j. dh must be a positive multiple of 4, n at least 1. A head's accumulator
// stays in registers across the whole tile, 32 columns (eight YMM registers)
// at a time, then 16, then 4; each column is an independent add chain, so
// blocking the columns reorders nothing within a chain.
TEXT ·pvTileAVX(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), R8
	MOVQ rows+8(FP), DI
	MOVQ acc+16(FP), R9
	MOVQ denom+24(FP), R11
	MOVQ group+32(FP), R12
	MOVQ dh+48(FP), R10
	MOVQ stride+56(FP), BX
	SHLQ $3, R10 // row length in bytes
	SHLQ $3, BX  // weight stripe stride in bytes
vhead:
	VMOVSD (R11), X10
	MOVQ   R8, AX
	MOVQ   n+40(FP), CX
vdenom:
	VADDSD (AX), X10, X10
	ADDQ   $8, AX
	DECQ   CX
	JNZ    vdenom
	VMOVSD X10, (R11)
	MOVQ   DI, R13     // column block base within the tile
	MOVQ   dh+48(FP), DX // columns left
	CMPQ   DX, $32
	JL     vcols16
vcols32:
	VMOVUPD 0(R9), Y0
	VMOVUPD 32(R9), Y1
	VMOVUPD 64(R9), Y2
	VMOVUPD 96(R9), Y3
	VMOVUPD 128(R9), Y4
	VMOVUPD 160(R9), Y5
	VMOVUPD 192(R9), Y6
	VMOVUPD 224(R9), Y7
	MOVQ    R13, SI
	MOVQ    R8, AX
	MOVQ    n+40(FP), CX
vrow32:
	PVHEAD
	PVCOL(0, Y0)
	PVCOL(32, Y1)
	PVCOL(64, Y2)
	PVCOL(96, Y3)
	PVCOL(128, Y4)
	PVCOL(160, Y5)
	PVCOL(192, Y6)
	PVCOL(224, Y7)
	ADDQ $8, AX
	ADDQ R10, SI
	DECQ CX
	JNZ  vrow32
	VMOVUPD Y0, 0(R9)
	VMOVUPD Y1, 32(R9)
	VMOVUPD Y2, 64(R9)
	VMOVUPD Y3, 96(R9)
	VMOVUPD Y4, 128(R9)
	VMOVUPD Y5, 160(R9)
	VMOVUPD Y6, 192(R9)
	VMOVUPD Y7, 224(R9)
	ADDQ $256, R9
	ADDQ $256, R13
	SUBQ $32, DX
	CMPQ DX, $32
	JGE  vcols32
vcols16:
	CMPQ DX, $16
	JL   vcols4
	VMOVUPD 0(R9), Y0
	VMOVUPD 32(R9), Y1
	VMOVUPD 64(R9), Y2
	VMOVUPD 96(R9), Y3
	MOVQ    R13, SI
	MOVQ    R8, AX
	MOVQ    n+40(FP), CX
vrow16:
	PVHEAD
	PVCOL(0, Y0)
	PVCOL(32, Y1)
	PVCOL(64, Y2)
	PVCOL(96, Y3)
	ADDQ $8, AX
	ADDQ R10, SI
	DECQ CX
	JNZ  vrow16
	VMOVUPD Y0, 0(R9)
	VMOVUPD Y1, 32(R9)
	VMOVUPD Y2, 64(R9)
	VMOVUPD Y3, 96(R9)
	ADDQ $128, R9
	ADDQ $128, R13
	SUBQ $16, DX
vcols4:
	TESTQ DX, DX
	JZ    vheadend
vcols4loop:
	VMOVUPD (R9), Y0
	MOVQ    R13, SI
	MOVQ    R8, AX
	MOVQ    n+40(FP), CX
vrow4:
	PVHEAD
	PVCOL(0, Y0)
	ADDQ $8, AX
	ADDQ R10, SI
	DECQ CX
	JNZ  vrow4
	VMOVUPD Y0, (R9)
	ADDQ $32, R9
	ADDQ $32, R13
	SUBQ $4, DX
	JNZ  vcols4loop
vheadend:
	ADDQ $8, R11
	ADDQ BX, R8
	DECQ R12
	JNZ  vhead
	VZEROUPPER
	RET

DATA expMagic<>+0(SB)/8, $0x4338000000000000
GLOBL expMagic<>(SB), RODATA|NOPTR, $8
DATA expIdx64<>+0(SB)/8, $31
DATA expIdx64<>+8(SB)/8, $31
DATA expIdx64<>+16(SB)/8, $31
DATA expIdx64<>+24(SB)/8, $31
GLOBL expIdx64<>(SB), RODATA|NOPTR, $32
DATA expAbs<>+0(SB)/8, $0x7fffffffffffffff
DATA expAbs<>+8(SB)/8, $0x7fffffffffffffff
DATA expAbs<>+16(SB)/8, $0x7fffffffffffffff
DATA expAbs<>+24(SB)/8, $0x7fffffffffffffff
GLOBL expAbs<>(SB), RODATA|NOPTR, $32

// func expShiftAVX2(x *float64, n int, shift float64) int
// Four lanes of expNeg(x[i]-shift) per pass, each lane the scalar sequence:
// n = floor(x*invL + 0.5), r = (x - n*LHi) - n*LLo, the degree-5 Horner chain
// mul then add (no FMA), s = expTab[n&31] * p, result bits(s) + (n>>5)<<52.
// Adding 1.5*2^52 to n (exact: |x| <= 690 bounds |n| below 2^15) leaves n in
// two's complement in the low mantissa bits of each 64-bit lane, so the table
// index, the gather and the exponent add are whole-register AVX2 integer ops.
// Stops before the first quad with a lane outside |x| <= 690 (the ordered
// compare is false for NaN) and returns the element count done.
TEXT ·expShiftAVX2(SB), NOSPLIT, $0-32
	MOVQ  x+0(FP), DI
	MOVQ  n+8(FP), R9
	XORQ  R10, R10
	SHRQ  $2, R9
	JZ    e2done
	VBROADCASTSD shift+16(FP), Y15
	LEAQ  ·expVecConsts(SB), R11
	VBROADCASTSD 0(R11), Y14  // 32/ln2
	VBROADCASTSD 8(R11), Y13  // 0.5: the rounding bias and C2
	VBROADCASTSD 16(R11), Y12 // LHi
	VBROADCASTSD 24(R11), Y11 // LLo
	VBROADCASTSD 32(R11), Y10 // C5
	VBROADCASTSD 40(R11), Y9  // C4
	VBROADCASTSD 48(R11), Y8  // C3
	VBROADCASTSD 56(R11), Y7  // 1
	VBROADCASTSD 64(R11), Y6  // 690
	VBROADCASTSD expMagic<>(SB), Y4
	LEAQ  ·expTab(SB), R8
e2loop:
	VMOVUPD   (DI), Y0
	VSUBPD    Y15, Y0, Y0     // x = s - shift
	VANDPD    expAbs<>(SB), Y0, Y1 // |x|
	VCMPPD    $0x12, Y6, Y1, Y1 // |x| <= 690, ordered
	VMOVMSKPD Y1, AX
	CMPL      AX, $15
	JNE       e2done
	VMULPD    Y14, Y0, Y1
	VADDPD    Y13, Y1, Y1
	VROUNDPD  $1, Y1, Y1      // n
	VMULPD    Y12, Y1, Y2
	VSUBPD    Y2, Y0, Y2
	VMULPD    Y11, Y1, Y3
	VSUBPD    Y3, Y2, Y2      // r
	VADDPD    Y4, Y1, Y1      // 1.5*2^52 + n: n in the low mantissa bits
	VMULPD    Y10, Y2, Y3
	VADDPD    Y9, Y3, Y3
	VMULPD    Y2, Y3, Y3
	VADDPD    Y8, Y3, Y3
	VMULPD    Y2, Y3, Y3
	VADDPD    Y13, Y3, Y3
	VMULPD    Y2, Y3, Y3
	VADDPD    Y7, Y3, Y3
	VMULPD    Y2, Y3, Y3
	VADDPD    Y7, Y3, Y3      // p
	VPAND     expIdx64<>(SB), Y1, Y0 // i = n & 31
	VPCMPEQD  Y2, Y2, Y2
	VGATHERQPD Y2, (R8)(Y0*8), Y5
	VMULPD    Y3, Y5, Y0      // s = expTab[i] * p
	VPSRLQ    $5, Y1, Y1
	VPSLLQ    $52, Y1, Y1     // (n >> 5) << 52
	VPADDQ    Y1, Y0, Y0
	VMOVUPD   Y0, (DI)
	ADDQ      $32, DI
	ADDQ      $4, R10
	DECQ      R9
	JNZ       e2loop
e2done:
	MOVQ R10, ret+24(FP)
	VZEROUPPER
	RET
