package lint

// Policy maps each rule to the module-relative directory trees it covers.
// A pattern matches a package whose Rel dir equals it or lives under it;
// the empty pattern "" matches every package. Policy is the per-package
// configuration surface: determinism applies only to the packages whose
// outputs must be pure functions of their inputs, while the trace layer —
// whose whole job is reading the wall clock — carries per-line
// //cplint:allow annotations instead of a blanket exemption, so every
// clock read there is visibly justified.
type Policy map[string][]string

// Applies reports whether rule covers the package at rel.
func (pol Policy) Applies(rule, rel string) bool {
	pats, ok := pol[rule]
	if !ok {
		return false
	}
	for _, pat := range pats {
		if pat == "" || pat == rel {
			return true
		}
		if len(rel) > len(pat) && rel[:len(pat)] == pat && rel[len(pat)] == '/' {
			return true
		}
	}
	return false
}

// DefaultPolicy is the repo's enforcement map (documented in README
// "Static analysis").
func DefaultPolicy() Policy {
	return Policy{
		// Deterministic packages: bit-identity and replay reproducibility
		// rest on these being pure functions of their inputs. The trace
		// layer is included deliberately — its legitimate wall-clock reads
		// are annotated in place rather than exempted wholesale.
		"determinism": {
			"internal/comm/wire",
			"internal/workload",
			// The analytical layer: model, experiments and ring simulator.
			"internal/perf",
			"internal/chaos",
			"internal/sharding",
			"internal/trace",
			// The scheduler takes every timestamp through one injected
			// clock; its single annotated read is the real one.
			"internal/server",
		},
		// Map-iteration order must never reach an encoder, a hash, a float
		// accumulator, or an unsorted slice anywhere in the tree.
		"map-order": {""},
		// Every switch over an iota kind enum in the wire codec and its
		// readers must cover all kinds or fail loudly in a default.
		"wire-exhaustive": {
			"internal/comm",
			"internal/transformer",
			"internal/chaos",
		},
		// No mutex held across a channel send or net.Conn write in the
		// transport or serving layers.
		"lock-send": {
			"internal/comm",
			"internal/server",
		},
		// Every cp_* series the engines record must be in the trace
		// package's registration set (the /metrics zero-state contract).
		"metric-reg": {
			"internal/server",
			"internal/transformer",
			"internal/trace",
		},
		// An exported function or method under internal/ has a caller
		// outside the tests, or an allow naming the test it serves.
		"testonly": {"internal"},
	}
}
