// Command cplint runs the repo's invariant analyzer suite (internal/lint)
// over every package in the module: determinism (no wall clocks or global
// randomness in deterministic paths), map-order (no map-iteration order
// reaching encoders, hashes, float accumulators, or unsorted slices),
// wire-exhaustive (switches over iota kind enums cover every constant or
// default loudly), lock-send (no mutex held across a channel send or conn
// write), metric-reg (every cp_* series pre-registered), and testonly (every
// exported function or method under internal/ has a caller outside the
// tests).
//
// Usage:
//
//	cplint ./...          # lint the module containing the working directory
//	cplint -json ./...    # machine-readable findings (internal/report shape)
//	cplint -C path ./...  # lint the module rooted at path
//
// Exit status: 0 clean, 1 findings, 2 load/usage error. A finding can be
// suppressed in place with `//cplint:allow <rule>[,<rule>] <reason>` on the
// offending line or the line above.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
	"repro/internal/report"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as one JSON report on stdout")
	chdir := flag.String("C", "", "module root to lint (default: the module containing the working directory)")
	flag.Parse()

	// The only accepted package pattern is the whole module; "./..." is
	// allowed for familiarity.
	for _, arg := range flag.Args() {
		if arg != "./..." {
			fmt.Fprintf(os.Stderr, "cplint: only ./... is supported (got %q)\n", arg)
			os.Exit(2)
		}
	}

	root := *chdir
	if root == "" {
		var err error
		if root, err = findModuleRoot(); err != nil {
			fmt.Fprintf(os.Stderr, "cplint: %v\n", err)
			os.Exit(2)
		}
	}
	m, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cplint: %v\n", err)
		os.Exit(2)
	}

	rep := report.New("cplint")
	rep.Findings = m.Run(lint.DefaultPolicy())
	if *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "cplint: %v\n", err)
			os.Exit(2)
		}
	} else if err := rep.WriteText(os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "cplint: %v\n", err)
		os.Exit(2)
	}
	if !rep.Empty() {
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Printf("cplint: ok — %d packages clean\n", len(m.Pkgs))
	}
}

// findModuleRoot ascends from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(dir + "/go.mod"); err == nil {
			return dir, nil
		}
		parent := dir[:max(0, lastSlash(dir))]
		if parent == "" || parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' || s[i] == '\\' {
			return i
		}
	}
	return -1
}
