package perf_test

import (
	"fmt"

	"repro/internal/perf"
)

// A comm-bound uniform ring exposes (N-1)*(xfer-compute) of SendRecv per
// rank; the event-driven makespan agrees with the closed-form overlap
// expression the perf model charges.
func ExampleSimulateRing() {
	spec := perf.Uniform(4, 1.0, 1.5, 0) // compute 1s, transfer 1.5s
	res, err := perf.SimulateRing(spec)
	if err != nil {
		panic(err)
	}
	fmt.Printf("makespan: %.1fs\n", res.Makespan)
	fmt.Printf("closed form: %.1fs\n", perf.ClosedForm(4, 1.0, 1.5, 0))
	fmt.Printf("exposed comm per rank: %.1fs\n", res.ExposedComm[0])
	// Output:
	// makespan: 5.5s
	// closed form: 5.5s
	// exposed comm per rank: 1.5s
}
