//go:build amd64

#include "textflag.h"

// func cpuidAVX2FMA() bool
// CPUID.1:ECX must report FMA (bit 12), OSXSAVE (bit 27) and AVX (bit 28),
// XGETBV must confirm the OS saves XMM+YMM state (XCR0 bits 1 and 2), and
// CPUID.(EAX=7, ECX=0):EBX must report AVX2 (bit 5).
TEXT ·cpuidAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	ANDL $(1<<12 | 1<<27 | 1<<28), CX
	CMPL CX, $(1<<12 | 1<<27 | 1<<28)
	JNE  novec
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  novec
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET
novec:
	MOVB $0, ret+0(FP)
	RET

// func dotF32AVX(a, b []float32) float32
// Eight float32 lanes accumulate in Y0 by fused multiply-add (lane i ==
// scalar accumulator s_i of the eight-way unrolled oracle), the scalar tail
// fuses into lane 0, and the horizontal adds replay
// ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)).
TEXT ·dotF32AVX(SB), NOSPLIT, $0-52
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	VXORPS Y0, Y0, Y0
	MOVQ   CX, DX
	SHRQ   $3, DX
	JZ     dtail_setup
	PCALIGN $32 // the loop stays inside one fetch block wherever the linker puts the function
dloop8:
	VMOVUPS     (SI), Y1
	VFMADD231PS (DI), Y1, Y0
	ADDQ        $32, SI
	ADDQ        $32, DI
	DECQ        DX
	JNZ         dloop8
dtail_setup:
	VEXTRACTF128 $1, Y0, X5 // s4..s7 move aside: a VEX.128 write to X0 zeroes Y0's high half
	ANDQ $7, CX
	JZ   dreduce
dtail:
	VMOVSS      (SI), X1
	VFMADD231SS (DI), X1, X0
	ADDQ        $4, SI
	ADDQ        $4, DI
	DECQ        CX
	JNZ         dtail
dreduce:
	VHADDPS X5, X0, X0 // [s0+s1 s2+s3 s4+s5 s6+s7]
	VHADDPS X0, X0, X0 // [(s0+s1)+(s2+s3) (s4+s5)+(s6+s7) ..]
	VHADDPS X0, X0, X0
	VMOVSS  X0, ret+48(FP)
	VZEROUPPER
	RET

// The panel kernel keeps one output cell per YMM register — exactly the Y0
// of dotF32AVX: same eight lanes, same fused multiply-add, same reduction —
// so a cell's bits do not depend on which kernel made it.

// ROW2 fuses one weight row's eight-float chunk times token 0's chunk (Y8)
// and token 1's (Y9) into that row's two accumulators.
#define ROW2(row, acc0, acc1) \
	VMOVUPS     row, Y10        \
	VFMADD231PS Y8, Y10, acc0   \
	VFMADD231PS Y9, Y10, acc1

// REDUCE4 replays ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) for four cells at
// once — two rounds of horizontal adds leave each cell's low-half and
// high-half sums in matching lanes of the two 128-bit halves — and stores
// the four results at dst.
#define REDUCE4(a, b, c, d, xa, dst) \
	VHADDPS      b, a, a    \
	VHADDPS      d, c, c    \
	VHADDPS      c, a, a    \
	VEXTRACTF128 $1, a, X9  \
	VADDPS       X9, xa, xa \
	VMOVUPS      xa, dst

#define ZERO8 \
	VXORPS Y0, Y0, Y0 \
	VXORPS Y1, Y1, Y1 \
	VXORPS Y2, Y2, Y2 \
	VXORPS Y3, Y3, Y3 \
	VXORPS Y4, Y4, Y4 \
	VXORPS Y5, Y5, Y5 \
	VXORPS Y6, Y6, Y6 \
	VXORPS Y7, Y7, Y7

// func dotPanel8AVX(dst *float32, ldd int, w, x *float32, n, tokens int)
// Eight weight rows (w, row stride n) against `tokens` activation rows (x,
// row stride n): dst[t*ldd+r] = dot(w[r], x[t]) for r < 8. n must be a
// positive multiple of 8. Tokens go two at a time, each pair against rows
// 0..3 and then rows 4..7 — eight independent FMA chains per pass, every
// weight chunk loaded once for both tokens — then a last odd token alone
// against all eight rows.
TEXT ·dotPanel8AVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ w+16(FP), SI
	MOVQ x+24(FP), BX
	MOVQ n+32(FP), R9
	MOVQ tokens+40(FP), CX
	SHLQ $2, R8          // dst row stride in bytes
	MOVQ R9, R10
	SHRQ $3, R10         // 8-float steps per row
	SHLQ $2, R9          // operand row stride in bytes
	LEAQ (R9)(R9*2), R12 // three rows
	LEAQ (R12)(R12*1), R13
	LEAQ (R13)(R9*2), R13 // eight rows
	CMPQ CX, $2
	JL   ptok1
ptok2:
	MOVQ $2, DX // rows 0..3, then rows 4..7
phalf:
	ZERO8
	MOVQ R10, AX
	PCALIGN $32
pk2:
	VMOVUPS (BX), Y8
	VMOVUPS (BX)(R9*1), Y9
	ROW2((SI), Y0, Y4)
	ROW2((SI)(R9*1), Y1, Y5)
	ROW2((SI)(R9*2), Y2, Y6)
	ROW2((SI)(R12*1), Y3, Y7)
	ADDQ $32, SI
	ADDQ $32, BX
	DECQ AX
	JNZ  pk2
	REDUCE4(Y0, Y1, Y2, Y3, X0, (DI))
	REDUCE4(Y4, Y5, Y6, Y7, X4, (DI)(R8*1))
	ADDQ $16, DI // the next four columns of dst
	ADDQ R12, SI // the k loop ran SI along its first row; on to the next four
	SUBQ R9, BX  // rewind the token pair
	DECQ DX
	JNZ  phalf
	LEAQ -32(DI)(R8*2), DI
	SUBQ R13, SI         // rewind the weight panel
	LEAQ (BX)(R9*2), BX
	SUBQ $2, CX
	CMPQ CX, $2
	JGE  ptok2
ptok1:
	TESTQ CX, CX
	JZ    pdone
	ZERO8
	LEAQ (SI)(R9*4), R11 // rows 4..7
	PCALIGN $32
pk1:
	VMOVUPS     (BX), Y8
	VFMADD231PS (SI), Y8, Y0
	VFMADD231PS (SI)(R9*1), Y8, Y1
	VFMADD231PS (SI)(R9*2), Y8, Y2
	VFMADD231PS (SI)(R12*1), Y8, Y3
	VFMADD231PS (R11), Y8, Y4
	VFMADD231PS (R11)(R9*1), Y8, Y5
	VFMADD231PS (R11)(R9*2), Y8, Y6
	VFMADD231PS (R11)(R12*1), Y8, Y7
	ADDQ $32, SI
	ADDQ $32, R11
	ADDQ $32, BX
	DECQ R10
	JNZ  pk1
	REDUCE4(Y0, Y1, Y2, Y3, X0, (DI))
	REDUCE4(Y4, Y5, Y6, Y7, X4, 16(DI))
pdone:
	VZEROUPPER
	RET

// PEAK12 issues twelve independent fused multiply-adds (FMA latency 4 × two
// ports needs eight in flight; twelve leaves slack) on registers only.
#define PEAK12(op) \
	op Y12, Y13, Y0  \
	op Y12, Y13, Y1  \
	op Y12, Y13, Y2  \
	op Y12, Y13, Y3  \
	op Y12, Y13, Y4  \
	op Y12, Y13, Y5  \
	op Y12, Y13, Y6  \
	op Y12, Y13, Y7  \
	op Y12, Y13, Y8  \
	op Y12, Y13, Y9  \
	op Y12, Y13, Y10 \
	op Y12, Y13, Y11

// func peakFMA(iters int, double bool)
// The denominator of the utilisation tables: iters passes of twelve
// register-resident 256-bit FMAs, single precision (8 lanes) or double (4).
// All operands are zero, so nothing overflows or goes denormal.
TEXT ·peakFMA(SB), NOSPLIT, $0-9
	MOVQ iters+0(FP), CX
	ZERO8
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	CMPB double+8(FP), $0
	JNE  peakpd
	PCALIGN $32
peakps:
	PEAK12(VFMADD231PS)
	DECQ CX
	JNZ  peakps
	VZEROUPPER
	RET
	PCALIGN $32
peakpd:
	PEAK12(VFMADD231PD)
	DECQ CX
	JNZ  peakpd
	VZEROUPPER
	RET
