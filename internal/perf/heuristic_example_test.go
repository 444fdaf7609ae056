package perf_test

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/perf"
)

// Algorithm 1 for Llama3 405B on 4 GTT nodes: full prefill rides pass-KV,
// a 1%-miss follow-up rides pass-Q, and anything above the 12.5% miss-rate
// threshold (Equation 1) rides pass-KV again.
func ExampleAlgorithm1() {
	in := perf.NewInputs(model.Llama3405B(), perf.GTT(), 4)
	fmt.Printf("Eq1 miss threshold: %.3f\n", perf.Eq1Threshold(in.Model))
	fmt.Println("full 128K prefill:", perf.Algorithm1(in, 128000, 0))
	fmt.Println("1% miss follow-up:", perf.Algorithm1(in, 1280, 126720))
	fmt.Println("20% miss follow-up:", perf.Algorithm1(in, 25600, 102400))
	// Output:
	// Eq1 miss threshold: 0.125
	// full 128K prefill: pass-KV
	// 1% miss follow-up: pass-Q
	// 20% miss follow-up: pass-KV
}
