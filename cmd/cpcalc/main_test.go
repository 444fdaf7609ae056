package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// The formula report is pinned byte for byte: the default invocation and a
// GTI deployment-planning query with capacity, TTFT and TTIT constraints.
func TestFormulasGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   string
	}{
		{"cpcalc_default.golden", ""},
		{"cpcalc_gti.golden", "-platform gti -nodes 8 -ctx 1000000 -cached 20000 -ttft 80 -ttit 0.05"},
	} {
		want, err := os.ReadFile("../../internal/perf/testdata/" + tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run(strings.Fields(tc.args), &got); err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("cpcalc %s differs from %s:\n%s", tc.args, tc.golden, got.String())
		}
	}
}

func TestSimOutRequiresTrace(t *testing.T) {
	if err := run([]string{"-sim-out", "x.json"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-sim-out without -tracev2 accepted")
	}
}
