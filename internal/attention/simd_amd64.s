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
// s_i, every step a fused multiply-add, reduced as ((s0+s2)+(s1+s3)) then
// scaled; every V accumulator element is its own fused multiply-add chain in
// ascending row order.

// SCORE4 fuses q-chunk (Y8) times the same chunk of four consecutive K rows
// from base into four rows' accumulators.
#define SCORE4(base, a0, a1, a2, a3) \
	VFMADD231PD (base), Y8, a0          \
	VFMADD231PD (base)(R10*1), Y8, a1   \
	VFMADD231PD (base)(R10*2), Y8, a2   \
	VFMADD231PD (base)(R13*1), Y8, a3

// FINISH4 reduces four rows' accumulators to their scaled scores
// ((s0+s2)+(s1+s3))*scale — the 128-bit halves of rows 0|2 and of rows 1|3
// are paired up and added, then one horizontal add leaves the four rows in
// order — stores them at dst and folds them into the running max X11 as the
// scalar loop would, row by row, keeping the earlier value on a tie (±0) and
// skipping NaN: NaN lanes become -Inf (Y12), a two-level max with the earlier
// row as VMAX's second source, which wins ties, and the running max last.
#define FINISH4(a0, x0, a1, a2, a3, dst) \
	VPERM2F128   $0x20, a2, a0, Y9 \
	VPERM2F128   $0x31, a2, a0, a0 \
	VADDPD       a0, Y9, a0        \
	VPERM2F128   $0x20, a3, a1, Y9 \
	VPERM2F128   $0x31, a3, a1, a1 \
	VADDPD       a1, Y9, a1        \
	VHADDPD      a1, a0, a0        \
	VMULPD       Y10, a0, a0       \
	VMOVUPD      a0, dst           \
	VMAXPD       Y12, a0, a0       \
	VPERMILPD    $5, a0, Y9        \
	VMAXPD       a0, Y9, a0        \
	VEXTRACTF128 $1, a0, X9        \
	VMAXSD       x0, X9, X9        \
	VMAXSD       X11, X9, X11

#define ZERO4(a0, a1, a2, a3) \
	VXORPD a0, a0, a0 \
	VXORPD a1, a1, a1 \
	VXORPD a2, a2, a2 \
	VXORPD a3, a3, a3

DATA negInf<>+0(SB)/8, $0xfff0000000000000
GLOBL negInf<>(SB), RODATA|NOPTR, $8

// func scoreTileAVX(q, rows, scores, maxs *float64, group, n, dh, stride int, scale float64)
// For every head g of the group: scores[g*stride+j] = dot(q[g*dh:], rows[j*dh:])
// * scale for j < n, and maxs[g] = max(maxs[g], those scores) as if taken in
// row order (a NaN score leaves the max unchanged). dh must be a positive
// multiple of 4, n at least 1. Rows go eight at a time against one load of
// the q chunk — eight independent FMA chains, what two FMA ports of latency
// four need — then four, then one at a time.
TEXT ·scoreTileAVX(SB), NOSPLIT, $0-72
	MOVQ q+0(FP), R8
	MOVQ scores+16(FP), R9
	MOVQ maxs+24(FP), R11
	MOVQ group+32(FP), R12
	MOVQ dh+48(FP), R10
	MOVQ stride+56(FP), BX
	VBROADCASTSD scale+64(FP), Y10
	VBROADCASTSD negInf<>(SB), Y12
	SHLQ $3, R10            // row length in bytes
	LEAQ (R10)(R10*2), R13  // three rows
	SUBQ n+40(FP), BX
	SHLQ $3, BX             // bytes from the end of one head's stripe to the next
shead:
	VMOVSD (R11), X11       // running max
	MOVQ   rows+8(FP), SI
	MOVQ   n+40(FP), CX
	CMPQ   CX, $8
	JL     srow4
srow8:
	ZERO4(Y0, Y1, Y2, Y3)
	ZERO4(Y4, Y5, Y6, Y7)
	MOVQ   R8, AX
	MOVQ   R10, DX
	SHRQ   $5, DX
	LEAQ   (SI)(R10*4), DI  // rows 4..7
	PCALIGN $32
sk8:
	VMOVUPD (AX), Y8
	SCORE4(SI, Y0, Y1, Y2, Y3)
	SCORE4(DI, Y4, Y5, Y6, Y7)
	ADDQ $32, AX
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  sk8
	FINISH4(Y0, X0, Y1, Y2, Y3, (R9))
	FINISH4(Y4, X4, Y5, Y6, Y7, 32(R9))
	ADDQ $64, R9
	LEAQ (DI)(R13*1), SI // the k loop ran DI across row 4; skip rows 5..7
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  srow8
srow4:
	CMPQ CX, $4
	JL   srow1
	ZERO4(Y0, Y1, Y2, Y3)
	MOVQ   R8, AX
	MOVQ   R10, DX
	SHRQ   $5, DX
	PCALIGN $32
sk4:
	VMOVUPD (AX), Y8
	SCORE4(SI, Y0, Y1, Y2, Y3)
	ADDQ $32, AX
	ADDQ $32, SI
	DECQ DX
	JNZ  sk4
	FINISH4(Y0, X0, Y1, Y2, Y3, (R9))
	ADDQ $32, R9
	ADDQ R13, SI // the k loop ran SI across row 0; skip rows 1..3
	SUBQ $4, CX
srow1:
	TESTQ CX, CX
	JZ    sheadend
srow1loop:
	VXORPD Y0, Y0, Y0
	MOVQ   R8, AX
	MOVQ   R10, DX
	SHRQ   $5, DX
	PCALIGN $32
sk1:
	VMOVUPD     (AX), Y8
	VFMADD231PD (SI), Y8, Y0
	ADDQ $32, AX
	ADDQ $32, SI
	DECQ DX
	JNZ  sk1
	VEXTRACTF128 $1, Y0, X9
	VADDPD  X9, X0, X0 // [s0+s2, s1+s3]
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

// PVHEAD broadcasts the row's weight; PVCOL fuses weight × one 4-column chunk
// of the row into that chunk's accumulator register.
#define PVHEAD \
	VBROADCASTSD (AX), Y8
#define PVCOL(off, acc) \
	VFMADD231PD off(SI), Y8, acc

// func pvTileAVX(w, rows, acc, denom *float64, group, n, dh, stride int)
// For every head g of the group, with weights wg = w[g*stride:][:n]:
// denom[g] += wg[j] and acc[g*dh+d] += wg[j]*rows[j*dh+d], both in ascending
// j. dh must be a positive multiple of 4, n at least 1. A head's accumulator
// stays in registers across the whole tile, 32 columns (eight YMM registers)
// at a time, then 16, then 4; each column is an independent fused
// multiply-add chain, so blocking the columns reorders nothing within a chain.
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
	PCALIGN $32
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
	PCALIGN $32
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
	PCALIGN $32
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
// Four lanes of expNeg(x[i]-shift) per pass, each lane the scalar sequence,
// fused multiply-add for fused multiply-add: n = floor(fma(x, invL, 0.5)),
// r = fma(-n, LLo, fma(-n, LHi, x)), the degree-5 Horner chain as nested fma,
// s = expTab[n&31] * p, result bits(s) + (n>>5)<<52.
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
	PCALIGN $32
e2loop:
	VMOVUPD   (DI), Y0
	VSUBPD    Y15, Y0, Y0     // x = s - shift
	VANDPD    expAbs<>(SB), Y0, Y1 // |x|
	VCMPPD    $0x12, Y6, Y1, Y1 // |x| <= 690, ordered
	VMOVMSKPD Y1, AX
	CMPL      AX, $15
	JNE       e2done
	VMOVAPD   Y0, Y1
	VFMADD213PD Y13, Y14, Y1  // x*invL + 0.5
	VROUNDPD  $1, Y1, Y1      // n
	VFNMADD231PD Y12, Y1, Y0  // x - n*LHi
	VFNMADD231PD Y11, Y1, Y0  // r
	VADDPD    Y4, Y1, Y1      // 1.5*2^52 + n: n in the low mantissa bits
	VMOVAPD   Y10, Y3
	VFMADD213PD Y9, Y0, Y3    // C5*r + C4
	VFMADD213PD Y8, Y0, Y3    // ... *r + C3
	VFMADD213PD Y13, Y0, Y3   // ... *r + C2
	VFMADD213PD Y7, Y0, Y3    // ... *r + 1
	VFMADD213PD Y7, Y0, Y3    // p
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
