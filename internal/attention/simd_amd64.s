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

// ---- AVX-512 tier: eight float64 lanes per ZMM register ----

// func cvt512(dst []float64, src []float32)
// Widens len(src) float32s to float64, eight per conversion.
TEXT ·cvt512(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   c5tail_setup
c5loop8:
	VCVTPS2PD (SI), Z1
	VMOVUPD   Z1, (DI)
	ADDQ $32, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  c5loop8
c5tail_setup:
	ANDQ $7, CX
	JZ   c5done
c5tail:
	VCVTSS2SD (SI), X1, X1
	VMOVSD    X1, (DI)
	ADDQ $4, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  c5tail
c5done:
	VZEROUPPER
	RET

DATA expBit4<>+0(SB)/8, $16
GLOBL expBit4<>(SB), RODATA|NOPTR, $8

// func expShift512(x *float64, n int, shift float64) int
// expShiftAVX2 eight lanes wide, with the floor and the shift into the low
// mantissa bits in one add rounded toward -Inf: |t| < 2^51, so
// 1.5*2^52 + t rounded down is exactly 1.5*2^52 + floor(t), and subtracting
// 1.5*2^52 again gives floor(t) exactly. The integer index and exponent add
// are whole-register ops as in expShiftAVX2. The 32-entry table lives in
// four registers (Z16..Z19), so the lookup is two two-register permutes on
// the index's low four bits and a masked move on bit 4, in place of a
// gather: the same table entries, fewer loads. Stops before the first octet
// with a lane outside |x| <= 690 and returns the element count done.
TEXT ·expShift512(SB), NOSPLIT, $0-32
	MOVQ  x+0(FP), DI
	MOVQ  n+8(FP), R9
	XORQ  R10, R10
	SHRQ  $3, R9
	JZ    e5done
	VBROADCASTSD shift+16(FP), Z15
	LEAQ  ·expVecConsts(SB), R11
	VBROADCASTSD 0(R11), Z14  // 32/ln2
	VBROADCASTSD 8(R11), Z13  // 0.5: the rounding bias and C2
	VBROADCASTSD 16(R11), Z12 // LHi
	VBROADCASTSD 24(R11), Z11 // LLo
	VBROADCASTSD 32(R11), Z10 // C5
	VBROADCASTSD 40(R11), Z9  // C4
	VBROADCASTSD 48(R11), Z8  // C3
	VBROADCASTSD 56(R11), Z7  // 1
	VBROADCASTSD 64(R11), Z6  // 690
	VBROADCASTSD expMagic<>(SB), Z4
	LEAQ  ·expTab(SB), R8
	VMOVUPD 0(R8), Z16        // 2^(i/32) for i = 0..7
	VMOVUPD 64(R8), Z17       // 8..15
	VMOVUPD 128(R8), Z18      // 16..23
	VMOVUPD 192(R8), Z19      // 24..31
	VPBROADCASTQ expBit4<>(SB), Z20
	PCALIGN $32
e5loop:
	VMOVUPD   (DI), Z0
	VSUBPD    Z15, Z0, Z0     // x = s - shift
	VANDPD.BCST expAbs<>(SB), Z0, Z1 // |x|
	VCMPPD    $0x12, Z6, Z1, K1 // |x| <= 690, ordered
	KORTESTB  K1, K1          // carry: every lane in range
	JCC       e5done
	VMOVAPD   Z0, Z1
	VFMADD213PD Z13, Z14, Z1  // t = x*invL + 0.5
	VADDPD.RD_SAE Z4, Z1, Z1  // 1.5*2^52 + floor(t), exact: n in the low mantissa bits
	VSUBPD    Z4, Z1, Z2      // n = floor(t)
	VFNMADD231PD Z12, Z2, Z0  // x - n*LHi
	VFNMADD231PD Z11, Z2, Z0  // r
	VMOVAPD   Z10, Z3
	VFMADD213PD Z9, Z0, Z3    // C5*r + C4
	VFMADD213PD Z8, Z0, Z3    // ... *r + C3
	VFMADD213PD Z13, Z0, Z3   // ... *r + C2
	VFMADD213PD Z7, Z0, Z3    // ... *r + 1
	VFMADD213PD Z7, Z0, Z3    // p
	VMOVAPD   Z16, Z2
	VPERMT2PD Z17, Z1, Z2     // expTab[n & 15]
	VMOVAPD   Z18, Z5
	VPERMT2PD Z19, Z1, Z5     // expTab[16 + n&15]
	VPTESTMQ  Z20, Z1, K2     // n & 16
	VMOVAPD   Z5, K2, Z2      // expTab[n & 31]
	VMULPD    Z3, Z2, Z0      // s = expTab[i] * p
	VPSRLQ    $5, Z1, Z1
	VPSLLQ    $52, Z1, Z1     // (n >> 5) << 52
	VPADDQ    Z1, Z0, Z0
	VMOVUPD   Z0, (DI)
	ADDQ      $64, DI
	ADDQ      $8, R10
	DECQ      R9
	JNZ       e5loop
e5done:
	MOVQ R10, ret+24(FP)
	VZEROUPPER
	RET

// The PV kernel's lanes are columns, as in pvTileAVX, but four heads run per
// pass: every V chunk is loaded once for the four, their weights are
// broadcast once per row, and each head's denominator (X24..X27, restarted
// from X28..X31 at every column block, so each block replays the same
// chain) advances inside the row loop.

// PV4W broadcasts the row's weight for each of the four heads (Z20..Z23)
// and adds it to that head's denominator.
#define PV4W \
	VBROADCASTSD (AX), Z20        \
	VBROADCASTSD (AX)(BX*1), Z21  \
	VBROADCASTSD (AX)(BX*2), Z22  \
	VBROADCASTSD (AX)(R14*1), Z23 \
	VADDSD       X20, X24, X24    \
	VADDSD       X21, X25, X25    \
	VADDSD       X22, X26, X26    \
	VADDSD       X23, X27, X27

// PV4C fuses one eight-column V chunk (v) into the four heads' accumulators
// for that chunk.
#define PV4C(v, a0, a1, a2, a3) \
	VFMADD231PD v, Z20, a0 \
	VFMADD231PD v, Z21, a1 \
	VFMADD231PD v, Z22, a2 \
	VFMADD231PD v, Z23, a3

// LD4/ST4 move one eight-column chunk of the four heads' accumulators.
#define LD4(off, a0, a1, a2, a3) \
	VMOVUPD off(R9), a0          \
	VMOVUPD off(R9)(R10*1), a1   \
	VMOVUPD off(R9)(R10*2), a2   \
	VMOVUPD off(R9)(R13*1), a3

#define ST4(off, a0, a1, a2, a3) \
	VMOVUPD a0, off(R9)          \
	VMOVUPD a1, off(R9)(R10*1)   \
	VMOVUPD a2, off(R9)(R10*2)   \
	VMOVUPD a3, off(R9)(R13*1)

#define DEN4START \
	VMOVAPD X28, X24 \
	VMOVAPD X29, X25 \
	VMOVAPD X30, X26 \
	VMOVAPD X31, X27 \
	MOVQ    R15, SI  \
	MOVQ    R8, AX

#define DEN4STORE \
	VMOVSD X24, (R11)   \
	VMOVSD X25, 8(R11)  \
	VMOVSD X26, 16(R11) \
	VMOVSD X27, 24(R11)

// PV1W is PV4W for one head.
#define PV1W \
	VBROADCASTSD (AX), Z20 \
	VADDSD       X20, X24, X24

#define DEN1START \
	VMOVAPD X28, X24 \
	MOVQ    R15, SI  \
	MOVQ    R8, AX

// func pvTile512(w, rows, acc, denom *float64, group, n, dh, stride int)
// pvTileAVX's contract: for every head g, with wg = w[g*stride:][:n],
// denom[g] += wg[j] and acc[g*dh+d] = fma(wg[j], rows[j*dh+d], acc[g*dh+d]),
// both in ascending j. dh must be a positive multiple of 8, n at least 1.
// Heads go four at a time, columns 32 (sixteen accumulators), then 16, then
// 8 at a time; the heads past the last four go one at a time.
TEXT ·pvTile512(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), R8
	MOVQ rows+8(FP), DI
	MOVQ acc+16(FP), R9
	MOVQ denom+24(FP), R11
	MOVQ group+32(FP), R12
	MOVQ dh+48(FP), R10
	MOVQ stride+56(FP), BX
	SHLQ $3, R10            // row length in bytes
	SHLQ $3, BX             // weight stripe stride in bytes
	LEAQ (R10)(R10*2), R13  // three heads' accumulators
	LEAQ (BX)(BX*2), R14    // three heads' weight stripes
	CMPQ R12, $4
	JL   p5one
p5quad:
	VMOVSD (R11), X28
	VMOVSD 8(R11), X29
	VMOVSD 16(R11), X30
	VMOVSD 24(R11), X31
	MOVQ   DI, R15          // column block base within the tile
	MOVQ   dh+48(FP), DX    // columns left
	CMPQ   DX, $32
	JL     p5q16
p5q32:
	LD4(0, Z0, Z1, Z2, Z3)
	LD4(64, Z4, Z5, Z6, Z7)
	LD4(128, Z8, Z9, Z10, Z11)
	LD4(192, Z12, Z13, Z14, Z15)
	DEN4START
	MOVQ n+40(FP), CX
	PCALIGN $32
p5q32row:
	VMOVUPD 0(SI), Z16
	VMOVUPD 64(SI), Z17
	VMOVUPD 128(SI), Z18
	VMOVUPD 192(SI), Z19
	PV4W
	PV4C(Z16, Z0, Z1, Z2, Z3)
	PV4C(Z17, Z4, Z5, Z6, Z7)
	PV4C(Z18, Z8, Z9, Z10, Z11)
	PV4C(Z19, Z12, Z13, Z14, Z15)
	ADDQ $8, AX
	ADDQ R10, SI
	DECQ CX
	JNZ  p5q32row
	ST4(0, Z0, Z1, Z2, Z3)
	ST4(64, Z4, Z5, Z6, Z7)
	ST4(128, Z8, Z9, Z10, Z11)
	ST4(192, Z12, Z13, Z14, Z15)
	DEN4STORE
	ADDQ $256, R9
	ADDQ $256, R15
	SUBQ $32, DX
	CMPQ DX, $32
	JGE  p5q32
p5q16:
	CMPQ DX, $16
	JL   p5q8
	LD4(0, Z0, Z1, Z2, Z3)
	LD4(64, Z4, Z5, Z6, Z7)
	DEN4START
	MOVQ n+40(FP), CX
	PCALIGN $32
p5q16row:
	VMOVUPD 0(SI), Z16
	VMOVUPD 64(SI), Z17
	PV4W
	PV4C(Z16, Z0, Z1, Z2, Z3)
	PV4C(Z17, Z4, Z5, Z6, Z7)
	ADDQ $8, AX
	ADDQ R10, SI
	DECQ CX
	JNZ  p5q16row
	ST4(0, Z0, Z1, Z2, Z3)
	ST4(64, Z4, Z5, Z6, Z7)
	DEN4STORE
	ADDQ $128, R9
	ADDQ $128, R15
	SUBQ $16, DX
p5q8:
	TESTQ DX, DX
	JZ    p5qend
p5q8blk:
	LD4(0, Z0, Z1, Z2, Z3)
	DEN4START
	MOVQ n+40(FP), CX
	PCALIGN $32
p5q8row:
	VMOVUPD 0(SI), Z16
	PV4W
	PV4C(Z16, Z0, Z1, Z2, Z3)
	ADDQ $8, AX
	ADDQ R10, SI
	DECQ CX
	JNZ  p5q8row
	ST4(0, Z0, Z1, Z2, Z3)
	DEN4STORE
	ADDQ $64, R9
	ADDQ $64, R15
	SUBQ $8, DX
	JNZ  p5q8blk
p5qend:
	ADDQ R13, R9 // the column blocks ran R9 across head 0; skip heads 1..3
	ADDQ $32, R11
	LEAQ (R8)(BX*4), R8
	SUBQ $4, R12
	CMPQ R12, $4
	JGE  p5quad
p5one:
	TESTQ R12, R12
	JZ    p5done
p5head:
	VMOVSD (R11), X28
	MOVQ   DI, R15
	MOVQ   dh+48(FP), DX
	CMPQ   DX, $32
	JL     p5h16
p5h32:
	VMOVUPD 0(R9), Z0
	VMOVUPD 64(R9), Z1
	VMOVUPD 128(R9), Z2
	VMOVUPD 192(R9), Z3
	DEN1START
	MOVQ n+40(FP), CX
	PCALIGN $32
p5h32row:
	PV1W
	VFMADD231PD 0(SI), Z20, Z0
	VFMADD231PD 64(SI), Z20, Z1
	VFMADD231PD 128(SI), Z20, Z2
	VFMADD231PD 192(SI), Z20, Z3
	ADDQ $8, AX
	ADDQ R10, SI
	DECQ CX
	JNZ  p5h32row
	VMOVUPD Z0, 0(R9)
	VMOVUPD Z1, 64(R9)
	VMOVUPD Z2, 128(R9)
	VMOVUPD Z3, 192(R9)
	VMOVSD  X24, (R11)
	ADDQ $256, R9
	ADDQ $256, R15
	SUBQ $32, DX
	CMPQ DX, $32
	JGE  p5h32
p5h16:
	CMPQ DX, $16
	JL   p5h8
	VMOVUPD 0(R9), Z0
	VMOVUPD 64(R9), Z1
	DEN1START
	MOVQ n+40(FP), CX
	PCALIGN $32
p5h16row:
	PV1W
	VFMADD231PD 0(SI), Z20, Z0
	VFMADD231PD 64(SI), Z20, Z1
	ADDQ $8, AX
	ADDQ R10, SI
	DECQ CX
	JNZ  p5h16row
	VMOVUPD Z0, 0(R9)
	VMOVUPD Z1, 64(R9)
	VMOVSD  X24, (R11)
	ADDQ $128, R9
	ADDQ $128, R15
	SUBQ $16, DX
p5h8:
	TESTQ DX, DX
	JZ    p5hend
p5h8blk:
	VMOVUPD 0(R9), Z0
	DEN1START
	MOVQ n+40(FP), CX
	PCALIGN $32
p5h8row:
	PV1W
	VFMADD231PD 0(SI), Z20, Z0
	ADDQ $8, AX
	ADDQ R10, SI
	DECQ CX
	JNZ  p5h8row
	VMOVUPD Z0, 0(R9)
	VMOVSD  X24, (R11)
	ADDQ $64, R9
	ADDQ $64, R15
	SUBQ $8, DX
	JNZ  p5h8blk
p5hend:
	ADDQ $8, R11
	ADDQ BX, R8
	DECQ R12
	JNZ  p5head
p5done:
	VZEROUPPER
	RET

// The score kernel's lanes are eight heads of the group. qt holds each
// query's q transposed to [d][head], so one ZMM load is element d of eight
// heads' q, and the K row element d of a key enters each fused multiply-add
// as an embedded broadcast. Accumulator c of a key holds, in lane g, the
// oracle's s_c for head g (d mod 4 = c, the dh mod 4 tail in s0), so the
// finish ((s0+s2)+(s1+s3))*scale is vertical. Eight keys' score vectors
// (key k's eight heads in Z16+k) are transposed in registers into eight
// heads' rows of the [head][key] chunk. Whole batches of eight keys run as
// two passes of four keys (sixteen accumulators: key k class c in Z(4k+c));
// the last batch of fewer than eight keys runs one key at a time, parks its
// score vectors in a stack buffer, and stores under a mask.

// SC4 fuses element d of the qt row at q (eight heads) with element d of
// four consecutive keys, at byte offset off of their rows.
#define SC4(q, off, a0, a1, a2, a3) \
	VMOVUPD          q, Z24                  \
	VFMADD231PD.BCST off(SI), Z24, a0        \
	VFMADD231PD.BCST off(SI)(R10*1), Z24, a1 \
	VFMADD231PD.BCST off(SI)(R10*2), Z24, a2 \
	VFMADD231PD.BCST off(SI)(R13*1), Z24, a3

// SC1 is SC4 for one key.
#define SC1(q, off, a) \
	VMOVUPD          q, Z24 \
	VFMADD231PD.BCST off(SI), Z24, a

// SCORES finishes one key's eight scores from its four class accumulators
// into a0.
#define SCORES(a0, a1, a2, a3) \
	VADDPD a2, a0, a0  \
	VADDPD a3, a1, a1  \
	VADDPD a1, a0, a0  \
	VMULPD Z26, a0, a0

// RAISE folds a later score vector s into the earlier running max m as the
// scalar `if s > mx` does in every lane: an ordered greater-than, so a NaN
// score or a tie (±0 included) keeps m.
#define RAISE(s, m) \
	VCMPPD  $0x1e, m, s, K1 \
	VMOVAPD s, K1, m

// FIRSTMAX sets a to the first maximal of a and the later b, lane by lane:
// b only where b > a. It is RAISE on copies, for the max tree of a four-key
// pass: with NaN scores first made -Inf (VMAXPD against Z27: its NaN rule
// returns the -Inf operand), which never raises anything, as a NaN never
// does, "first maximal" is associative, so the tree equals key-by-key RAISE.
#define FIRSTMAX(a, b, k) \
	VCMPPD    $0x1e, a, b, k \
	VBLENDMPD b, a, k, a

#define ZERO4Z(a0, a1, a2, a3) \
	VXORPD a0, a0, a0 \
	VXORPD a1, a1, a1 \
	VXORPD a2, a2, a2 \
	VXORPD a3, a3, a3

// TRANSPOSE8 turns eight keys' score vectors Z16..Z23 (row k: key k's eight
// heads) into eight heads' rows Z0..Z7 (row g: head g's eight keys).
#define TRANSPOSE8 \
	VUNPCKLPD  Z17, Z16, Z0       \
	VUNPCKHPD  Z17, Z16, Z1       \
	VUNPCKLPD  Z19, Z18, Z2       \
	VUNPCKHPD  Z19, Z18, Z3       \
	VUNPCKLPD  Z21, Z20, Z4       \
	VUNPCKHPD  Z21, Z20, Z5       \
	VUNPCKLPD  Z23, Z22, Z6       \
	VUNPCKHPD  Z23, Z22, Z7       \
	VSHUFF64X2 $0x88, Z2, Z0, Z8  \
	VSHUFF64X2 $0xdd, Z2, Z0, Z9  \
	VSHUFF64X2 $0x88, Z3, Z1, Z10 \
	VSHUFF64X2 $0xdd, Z3, Z1, Z11 \
	VSHUFF64X2 $0x88, Z6, Z4, Z12 \
	VSHUFF64X2 $0xdd, Z6, Z4, Z13 \
	VSHUFF64X2 $0x88, Z7, Z5, Z14 \
	VSHUFF64X2 $0xdd, Z7, Z5, Z15 \
	VSHUFF64X2 $0x88, Z12, Z8, Z0 \
	VSHUFF64X2 $0xdd, Z12, Z8, Z4 \
	VSHUFF64X2 $0x88, Z13, Z9, Z2 \
	VSHUFF64X2 $0xdd, Z13, Z9, Z6 \
	VSHUFF64X2 $0x88, Z14, Z10, Z1 \
	VSHUFF64X2 $0xdd, Z14, Z10, Z5 \
	VSHUFF64X2 $0x88, Z15, Z11, Z3 \
	VSHUFF64X2 $0xdd, Z15, Z11, Z7

// s5masks[r] has the low r bits set: the store mask of an r-key batch.
DATA s5masks<>+0(SB)/8, $0x7f3f1f0f07030100
GLOBL s5masks<>(SB), RODATA|NOPTR, $8

// func scoreTile512(qt, rows, scores, maxs *float64, group, n, dh, stride int, scale float64)
// scoreTileAVX's contract with q transposed: for every head g of the group,
// scores[g*stride+j] = dot(q_g, rows[j*dh:]) * scale for j < n, and maxs[g]
// raised to those scores in row order (a NaN score leaves it). group must be
// a positive multiple of 8, dh and n at least 1. Frame: the last batch's
// score buffer at 0(SP) and, at 512, this slab's first stripe; the pass
// counter of a whole batch and the slab counter live at 520 and 528.
TEXT ·scoreTile512(SB), NOSPLIT, $576-72
	MOVQ qt+0(FP), R8
	MOVQ scores+16(FP), DI
	MOVQ maxs+24(FP), BX
	MOVQ group+32(FP), R14
	MOVQ dh+48(FP), R10
	MOVQ stride+56(FP), R11
	VBROADCASTSD scale+64(FP), Z26
	VBROADCASTSD negInf<>(SB), Z27
	MOVQ R14, AX
	SHRQ $3, AX
	MOVQ AX, 528(SP)
	SHLQ $3, R14            // one d of qt in bytes
	LEAQ (R14)(R14*2), R15
	SHLQ $3, R10            // K row length in bytes
	LEAQ (R10)(R10*2), R13  // three rows
	SHLQ $3, R11            // score stripe stride in bytes
	LEAQ (R11)(R11*2), R12
s5slab:
	MOVQ    DI, 512(SP)
	VMOVUPD (BX), Z25       // the slab's eight running maxes
	MOVQ    rows+8(FP), SI
	MOVQ    n+40(FP), CX
s5batch:
	CMPQ CX, $8
	JL   s5part
	MOVQ $2, 520(SP)
s5half:
	ZERO4Z(Y0, Y1, Y2, Y3)
	ZERO4Z(Y4, Y5, Y6, Y7)
	ZERO4Z(Y8, Y9, Y10, Y11)
	ZERO4Z(Y12, Y13, Y14, Y15)
	MOVQ R8, AX
	MOVQ dh+48(FP), DX
	SHRQ $2, DX
	JZ   s5k4tail
	PCALIGN $32
s5k4:
	SC4((AX), 0, Z0, Z4, Z8, Z12)
	SC4((AX)(R14*1), 8, Z1, Z5, Z9, Z13)
	SC4((AX)(R14*2), 16, Z2, Z6, Z10, Z14)
	SC4((AX)(R15*1), 24, Z3, Z7, Z11, Z15)
	LEAQ (AX)(R14*4), AX
	ADDQ $32, SI
	DECQ DX
	JNZ  s5k4
s5k4tail:
	MOVQ dh+48(FP), DX
	ANDQ $3, DX
	JZ   s5k4fin
s5k4t:
	SC4((AX), 0, Z0, Z4, Z8, Z12)
	ADDQ R14, AX
	ADDQ $8, SI
	DECQ DX
	JNZ  s5k4t
s5k4fin:
	SCORES(Z0, Z1, Z2, Z3)
	SCORES(Z4, Z5, Z6, Z7)
	SCORES(Z8, Z9, Z10, Z11)
	SCORES(Z12, Z13, Z14, Z15)
	// The four keys enter the running max as one tree, so the max chain
	// is one compare and move per four keys.
	VMAXPD   Z27, Z0, Z1
	VMAXPD   Z27, Z4, Z5
	VMAXPD   Z27, Z8, Z9
	VMAXPD   Z27, Z12, Z13
	FIRSTMAX(Z1, Z5, K1)
	FIRSTMAX(Z9, Z13, K3)
	FIRSTMAX(Z1, Z9, K1)
	RAISE(Z1, Z25)
	VMOVAPD Z20, Z16 // keys 0..3 of the batch move down, these four go after
	VMOVAPD Z21, Z17
	VMOVAPD Z22, Z18
	VMOVAPD Z23, Z19
	VMOVAPD Z0, Z20
	VMOVAPD Z4, Z21
	VMOVAPD Z8, Z22
	VMOVAPD Z12, Z23
	ADDQ R13, SI // the d loop ran SI across key 0; skip keys 1..3
	DECQ 520(SP)
	JNZ  s5half
	TRANSPOSE8
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, (DI)(R11*1)
	VMOVUPD Z2, (DI)(R11*2)
	VMOVUPD Z3, (DI)(R12*1)
	LEAQ    (DI)(R11*4), AX
	VMOVUPD Z4, (AX)
	VMOVUPD Z5, (AX)(R11*1)
	VMOVUPD Z6, (AX)(R11*2)
	VMOVUPD Z7, (AX)(R12*1)
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  s5batch
s5part:
	TESTQ CX, CX
	JZ    s5slabend
	LEAQ    s5masks<>(SB), DX
	MOVBLZX (DX)(CX*1), AX
	KMOVB   AX, K2
	LEAQ    0(SP), R9       // the buffer's next slot
s5k1key:
	ZERO4Z(Y0, Y1, Y2, Y3)
	MOVQ R8, AX
	MOVQ dh+48(FP), DX
	SHRQ $2, DX
	JZ   s5k1tail
	PCALIGN $32
s5k1:
	SC1((AX), 0, Z0)
	SC1((AX)(R14*1), 8, Z1)
	SC1((AX)(R14*2), 16, Z2)
	SC1((AX)(R15*1), 24, Z3)
	LEAQ (AX)(R14*4), AX
	ADDQ $32, SI
	DECQ DX
	JNZ  s5k1
s5k1tail:
	MOVQ dh+48(FP), DX
	ANDQ $3, DX
	JZ   s5k1fin
s5k1t:
	SC1((AX), 0, Z0)
	ADDQ R14, AX
	ADDQ $8, SI
	DECQ DX
	JNZ  s5k1t
s5k1fin:
	SCORES(Z0, Z1, Z2, Z3)
	RAISE(Z0, Z25)
	VMOVUPD Z0, (R9)
	ADDQ $64, R9
	DECQ CX
	JNZ  s5k1key
	// The buffer's rows past the batch hold stale vectors; the mask keeps
	// them out of the chunk.
	VMOVUPD 0(SP), Z16
	VMOVUPD 64(SP), Z17
	VMOVUPD 128(SP), Z18
	VMOVUPD 192(SP), Z19
	VMOVUPD 256(SP), Z20
	VMOVUPD 320(SP), Z21
	VMOVUPD 384(SP), Z22
	VMOVUPD 448(SP), Z23
	TRANSPOSE8
	VMOVUPD Z0, K2, (DI)
	VMOVUPD Z1, K2, (DI)(R11*1)
	VMOVUPD Z2, K2, (DI)(R11*2)
	VMOVUPD Z3, K2, (DI)(R12*1)
	LEAQ    (DI)(R11*4), AX
	VMOVUPD Z4, K2, (AX)
	VMOVUPD Z5, K2, (AX)(R11*1)
	VMOVUPD Z6, K2, (AX)(R11*2)
	VMOVUPD Z7, K2, (AX)(R12*1)
s5slabend:
	VMOVUPD Z25, (BX)
	ADDQ $64, BX
	ADDQ $64, R8
	MOVQ 512(SP), DI
	LEAQ (DI)(R11*8), DI // the next slab's first stripe
	DECQ 528(SP)
	JNZ  s5slab
	VZEROUPPER
	RET
