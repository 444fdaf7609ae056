package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsClean is the enforcement test behind `cplint ./...` exiting 0:
// the whole module under the default policy must produce zero findings.
// Every deliberate exception in the tree carries a //cplint:allow with a
// reason, so a new wall-clock read, unsorted map fold, missed switch arm,
// locked send, or unregistered cp_* series fails this test.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; skipped in -short")
	}
	m, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	findings := m.Run(DefaultPolicy())
	for _, f := range findings {
		t.Errorf("%s", f.String())
	}
	if len(findings) == 0 && len(m.Pkgs) < 10 {
		t.Errorf("suspiciously few packages loaded: %d", len(m.Pkgs))
	}
}

// TestDefaultPolicyRules asserts the default policy only names real rules
// and that every rule has at least one covered path.
func TestDefaultPolicyRules(t *testing.T) {
	valid := map[string]bool{}
	for _, r := range RuleNames() {
		valid[r] = true
	}
	pol := DefaultPolicy()
	for rule, paths := range pol {
		if !valid[rule] {
			t.Errorf("default policy names unknown rule %q", rule)
		}
		if len(paths) == 0 {
			t.Errorf("default policy rule %q covers no paths", rule)
		}
	}
	for _, r := range RuleNames() {
		if _, ok := pol[r]; !ok {
			t.Errorf("rule %q missing from the default policy", r)
		}
	}
}

// TestServerReadsOneClock pins the scheduler's clock seam: internal/server
// is under the determinism rule, and the whole package carries exactly one
// determinism allow — the real clock every timestamp is injected from. A
// second annotated read would pass TestRepoIsClean; it must not pass this.
func TestServerReadsOneClock(t *testing.T) {
	if !DefaultPolicy().Applies("determinism", "internal/server") {
		t.Fatal("internal/server is not under the determinism rule")
	}
	files, err := filepath.Glob("../server/*.go")
	if err != nil {
		t.Fatal(err)
	}
	allows := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		allows += strings.Count(string(src), allowPrefix+" determinism")
	}
	if allows != 1 {
		t.Fatalf("internal/server carries %d determinism allows, want exactly 1 (the real clock)", allows)
	}
}

// TestPolicyApplies pins the path-matching semantics: exact dir, prefix
// with a slash boundary, and the "" wildcard.
func TestPolicyApplies(t *testing.T) {
	pol := Policy{
		"a": {"internal/comm"},
		"b": {""},
	}
	cases := []struct {
		rule, rel string
		want      bool
	}{
		{"a", "internal/comm", true},
		{"a", "internal/comm/wire", true},
		{"a", "internal/commx", false},
		{"a", "internal", false},
		{"b", "anything/at/all", true},
		{"b", "", true},
		{"c", "internal/comm", false},
	}
	for _, c := range cases {
		if got := pol.Applies(c.rule, c.rel); got != c.want {
			t.Errorf("Applies(%q, %q) = %v, want %v", c.rule, c.rel, got, c.want)
		}
	}
}
