//go:build amd64

package tensor

// siluMul512 is SiLUMul's AVX-512 form for n a positive multiple of 8: eight
// float64 lanes, each lane SiLU's arithmetic operation for operation, with
// math.Exp's amd64 sequence ported lane for lane. Implemented in
// silu_amd64.s.
//
//go:noescape
func siluMul512(act, gate, up *float32, n int)
