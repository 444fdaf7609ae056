//go:build amd64

#include "textflag.h"

// func cpuidAVX() bool
// CPUID.1:ECX must report OSXSAVE (bit 27) and AVX (bit 28), and XGETBV
// must confirm the OS saves XMM+YMM state (XCR0 bits 1 and 2).
TEXT ·cpuidAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	MOVL CX, BX
	ANDL $(1<<27 | 1<<28), BX
	CMPL BX, $(1<<27 | 1<<28)
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET
noavx:
	MOVB $0, ret+0(FP)
	RET

// func cpuidAVX2() bool
// CPUID.(EAX=7, ECX=0):EBX bit 5.
TEXT ·cpuidAVX2(SB), NOSPLIT, $0-1
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

// func dotF32AVX(a, b []float32) float32
// Four float32 lanes accumulate in X0 (lane i == scalar accumulator s_i of
// the four-way unrolled oracle), the scalar tail folds into lane 0, and the
// horizontal reduction replays ((s0+s2)+(s1+s3)). VEX.128 ops only, so no
// VZEROUPPER is needed.
TEXT ·dotF32AVX(SB), NOSPLIT, $0-52
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	VXORPS X0, X0, X0
	MOVQ   CX, DX
	SHRQ   $2, DX
	JZ     dtail_setup
	PCALIGN $32 // the 29-byte loop stays inside one fetch block wherever the linker puts the function
dloop4:
	VMOVUPS (SI), X1
	VMOVUPS (DI), X2
	VMULPS  X2, X1, X1
	VADDPS  X1, X0, X0
	ADDQ    $16, SI
	ADDQ    $16, DI
	DECQ    DX
	JNZ     dloop4
dtail_setup:
	ANDQ $3, CX
	JZ   dreduce
dtail:
	VMOVSS (SI), X1
	VMULSS (DI), X1, X1
	VADDSS X1, X0, X0
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    dtail
dreduce:
	// X0 = [s0 s1 s2 s3]; form (s0+s2) + (s1+s3) in lane 0.
	VPSRLDQ $8, X0, X1  // [s2 s3 0 0]
	VADDSS  X1, X0, X2  // lane0 = s0+s2
	VPSRLDQ $4, X0, X3  // [s1 s2 s3 0]
	VPSRLDQ $12, X0, X4 // [s3 0 0 0]
	VADDSS  X4, X3, X3  // lane0 = s1+s3
	VADDSS  X3, X2, X2
	VMOVSS  X2, ret+48(FP)
	RET

// The panel kernel keeps two output cells per YMM register: the low half is
// the four-lane accumulator of weight row r, the high half that of row r+1.
// Each half is exactly the X0 of dotF32AVX — same lanes, same mul-then-add,
// same reduction — so a cell's bits do not depend on which kernel made it.

// PAIR2 loads the 4-float chunks of two adjacent weight rows into the halves
// of Y8, multiplies by token 0's broadcast chunk (Y12) and token 1's (Y13),
// and adds into the two tokens' accumulators for that row pair. PAIR1 is the
// one-token form.
#define PAIR2(lo, hi, acc0, acc1) \
	VMOVUPS     lo, X8         \
	VINSERTF128 $1, hi, Y8, Y8 \
	VMULPS      Y12, Y8, Y9    \
	VADDPS      Y9, acc0, acc0 \
	VMULPS      Y13, Y8, Y10   \
	VADDPS      Y10, acc1, acc1

#define PAIR1(lo, hi, acc0) \
	VMOVUPS     lo, X8         \
	VINSERTF128 $1, hi, Y8, Y8 \
	VMULPS      Y12, Y8, Y9    \
	VADDPS      Y9, acc0, acc0

// REDUCE replays ((s0+s2)+(s1+s3)) in both halves of acc — [s2 s3 . .] is
// permuted down and added, then lane 1 is permuted down and added — and
// stores the two cells at off(DI) and off+4(DI).
#define REDUCE(acc, xacc, off) \
	VPERMILPS    $0xEE, acc, Y9 \
	VADDPS       Y9, acc, acc   \
	VPERMILPS    $0x55, acc, Y9 \
	VADDPS       Y9, acc, acc   \
	VEXTRACTF128 $1, acc, X9    \
	VMOVSS       xacc, off(DI)  \
	VMOVSS       X9, (off+4)(DI)

// func dotPanel8AVX(dst *float32, ldd int, w, x *float32, n, tokens int)
// Eight weight rows (w, row stride n) against `tokens` activation rows (x,
// row stride n): dst[t*ldd+r] = dot(w[r], x[t]) for r < 8. n must be a
// positive multiple of 4. Tokens go two at a time — eight YMM accumulators,
// sixteen cells, every operand chunk loaded once per pass — then a last odd
// token alone.
TEXT ·dotPanel8AVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ w+16(FP), SI
	MOVQ x+24(FP), BX
	MOVQ n+32(FP), R9
	MOVQ tokens+40(FP), CX
	SHLQ $2, R8          // dst row stride in bytes
	MOVQ R9, R10
	SHRQ $2, R10         // 4-float steps per row
	SHLQ $2, R9          // operand row stride in bytes
	LEAQ (R9)(R9*2), R12 // three rows
	LEAQ (SI)(R9*4), R13 // rows 4..7
	CMPQ CX, $2
	JL   ptok1
ptok2:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   R10, AX
pk2:
	VBROADCASTF128 (BX), Y12
	VBROADCASTF128 (BX)(R9*1), Y13
	PAIR2((SI), (SI)(R9*1), Y0, Y4)
	PAIR2((SI)(R9*2), (SI)(R12*1), Y1, Y5)
	PAIR2((R13), (R13)(R9*1), Y2, Y6)
	PAIR2((R13)(R9*2), (R13)(R12*1), Y3, Y7)
	ADDQ $16, SI
	ADDQ $16, R13
	ADDQ $16, BX
	DECQ AX
	JNZ  pk2
	REDUCE(Y0, X0, 0)
	REDUCE(Y1, X1, 8)
	REDUCE(Y2, X2, 16)
	REDUCE(Y3, X3, 24)
	ADDQ R8, DI
	REDUCE(Y4, X4, 0)
	REDUCE(Y5, X5, 8)
	REDUCE(Y6, X6, 16)
	REDUCE(Y7, X7, 24)
	ADDQ R8, DI
	SUBQ R9, SI  // rewind the weight panel
	SUBQ R9, R13
	ADDQ R9, BX  // skip the second token's row
	SUBQ $2, CX
	CMPQ CX, $2
	JGE  ptok2
ptok1:
	TESTQ CX, CX
	JZ    pdone
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
pk1:
	VBROADCASTF128 (BX), Y12
	PAIR1((SI), (SI)(R9*1), Y0)
	PAIR1((SI)(R9*2), (SI)(R12*1), Y1)
	PAIR1((R13), (R13)(R9*1), Y2)
	PAIR1((R13)(R9*2), (R13)(R12*1), Y3)
	ADDQ $16, SI
	ADDQ $16, R13
	ADDQ $16, BX
	DECQ R10
	JNZ  pk1
	REDUCE(Y0, X0, 0)
	REDUCE(Y1, X1, 8)
	REDUCE(Y2, X2, 16)
	REDUCE(Y3, X3, 24)
pdone:
	VZEROUPPER
	RET
