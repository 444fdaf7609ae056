//go:build !amd64

package tensor

// Non-amd64 builds always take the portable loop: simd.Active() never
// reaches AVX512 there.
func siluMul512(act, gate, up *float32, n int) { panic("tensor: siluMul512 without AVX-512") }
