//go:build amd64

#include "textflag.h"

// siluData holds the constants of the FMA branch of Go's amd64 math.Exp
// (src/math/exp_amd64.s), at the same offsets for every lane.
DATA siluData<>+0(SB)/8, $1.4426950408889634073599246810018920           // log2(e)
DATA siluData<>+8(SB)/8, $0.69314718055966295651160180568695068359375    // ln 2, upper half
DATA siluData<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // ln 2, lower half
DATA siluData<>+24(SB)/8, $0.0625
DATA siluData<>+32(SB)/8, $2.4801587301587301587e-5
DATA siluData<>+40(SB)/8, $1.9841269841269841270e-4
DATA siluData<>+48(SB)/8, $1.3888888888888888889e-3
DATA siluData<>+56(SB)/8, $8.3333333333333333333e-3
DATA siluData<>+64(SB)/8, $4.1666666666666666667e-2
DATA siluData<>+72(SB)/8, $1.6666666666666666667e-1
DATA siluData<>+80(SB)/8, $0.5
DATA siluData<>+88(SB)/8, $1.0
DATA siluData<>+96(SB)/8, $2.0
DATA siluData<>+104(SB)/8, $7.09782712893384e+02    // exp overflows above this
DATA siluData<>+112(SB)/8, $0x8000000000000000      // sign bit
DATA siluData<>+120(SB)/8, $0x7ff0000000000000      // +Inf
DATA siluData<>+128(SB)/8, $0x0010000000000000      // 2^-1022
DATA siluData<>+136(SB)/4, $-1023                   // k at or below: exponent bias gone, denormal
DATA siluData<>+140(SB)/4, $-1075                   // k below: underflow to 0
DATA siluData<>+144(SB)/4, $1024                    // k at or above: overflow to +Inf
DATA siluData<>+148(SB)/4, $0x3ff
DATA siluData<>+152(SB)/4, $0x3fe
GLOBL siluData<>(SB), RODATA, $156

// func siluMul512(act, gate, up *float32, n int)
// act[i] = float32(g / (1 + exp(-g))) * up[i] with g = float64(gate[i]),
// eight lanes per pass, n a positive multiple of 8. exp is math.Exp's amd64
// FMA sequence lane for lane: k = round(x*log2(e)), the two-part reduction
// x - k*ln2, the Taylor polynomial in r/16 squared back four times, then
// 2^k in one multiply, or in two (2^(k+1022), then 2^-1022) where the
// result is denormal. Its branches become masks applied last: k < -1075
// gives 0 (this covers -Inf), x > 709.78 or k >= 1024 gives +Inf, and a
// NaN x is returned as it is.
TEXT ·siluMul512(SB), NOSPLIT, $0-32
	MOVQ act+0(FP), DI
	MOVQ gate+8(FP), SI
	MOVQ up+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $3, CX
	LEAQ siluData<>(SB), AX
	VBROADCASTSD 0(AX), Z16
	VBROADCASTSD 8(AX), Z17
	VBROADCASTSD 16(AX), Z18
	VBROADCASTSD 24(AX), Z19
	VBROADCASTSD 32(AX), Z20
	VBROADCASTSD 40(AX), Z21
	VBROADCASTSD 48(AX), Z22
	VBROADCASTSD 56(AX), Z23
	VBROADCASTSD 64(AX), Z24
	VBROADCASTSD 72(AX), Z25
	VBROADCASTSD 80(AX), Z26
	VBROADCASTSD 88(AX), Z27
	VBROADCASTSD 96(AX), Z28
	VBROADCASTSD 104(AX), Z29
	VBROADCASTSD 112(AX), Z30
	VBROADCASTSD 120(AX), Z31
	VBROADCASTSD 128(AX), Z13
	VPBROADCASTD 136(AX), Y8
	VPBROADCASTD 140(AX), Y9
	VPBROADCASTD 144(AX), Y10
	VPBROADCASTD 148(AX), Y11
	VPBROADCASTD 152(AX), Y12
	PCALIGN $32
siluloop:
	VCVTPS2PD    (SI), Z0      // g
	VXORPD       Z30, Z0, Z1   // x = -g
	VCMPPD       $0x1e, Z29, Z1, K1 // x > 709.78, ordered
	VCMPPD       $3, Z1, Z1, K5     // x is NaN
	VMULPD       Z16, Z1, Z2
	VCVTPD2DQ    Z2, Y3        // k = round(x*log2(e)); 0x80000000 out of range
	VCVTDQ2PD    Y3, Z2
	VMOVAPD      Z1, Z4
	VFNMADD231PD Z17, Z2, Z4
	VFNMADD231PD Z18, Z2, Z4
	VMULPD       Z19, Z4, Z4   // r/16
	VMOVAPD      Z20, Z5
	VFMADD213PD  Z21, Z4, Z5
	VFMADD213PD  Z22, Z4, Z5
	VFMADD213PD  Z23, Z4, Z5
	VFMADD213PD  Z24, Z4, Z5
	VFMADD213PD  Z25, Z4, Z5
	VFMADD213PD  Z26, Z4, Z5
	VFMADD213PD  Z27, Z4, Z5
	VMULPD       Z5, Z4, Z4
	VADDPD       Z28, Z4, Z5
	VMULPD       Z5, Z4, Z4
	VADDPD       Z28, Z4, Z5
	VMULPD       Z5, Z4, Z4
	VADDPD       Z28, Z4, Z5
	VMULPD       Z5, Z4, Z4
	VADDPD       Z28, Z4, Z5
	VFMADD213PD  Z27, Z5, Z4   // e^r
	VPCMPD       $2, Y8, Y3, K2  // k <= -1023: denormal (or underflow)
	VPCMPD       $1, Y9, Y3, K3  // k < -1075: underflow
	VPCMPD       $5, Y10, Y3, K4 // k >= 1024: overflow
	KORB         K4, K1, K1
	VPADDD       Y11, Y3, Y3     // biased exponent
	VPADDD       Y12, Y3, K2, Y3 // denormal: 2^(k+1022) first
	VPMOVZXDQ    Y3, Z6
	VPSLLQ       $52, Z6, Z6
	VMULPD       Z6, Z4, Z4
	VMULPD       Z13, Z4, K2, Z4 // denormal: then 2^-1022
	VXORPD       Z4, Z4, K3, Z4
	VMOVAPD      Z31, K1, Z4
	VMOVAPD      Z1, K5, Z4      // exp(-g)
	VADDPD       Z27, Z4, Z4
	VDIVPD       Z4, Z0, Z4
	VCVTPD2PS    Z4, Y4
	VMULPS       (DX), Y4, Y4
	VMOVUPS      Y4, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DX
	ADDQ         $32, DI
	DECQ         CX
	JNZ          siluloop
	VZEROUPPER
	RET
