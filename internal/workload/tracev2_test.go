package workload

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/lint"
)

func testSpec(seed int64) TraceSpec {
	spec := DefaultTraceSpec(seed, 64, 200, 500_000)
	spec.MaxSessions = 40
	return spec
}

// Same seed + same spec → byte-identical trace files (the tracev2
// determinism contract, asserted again by the CI smoke via cmp).
func TestTraceByteIdentical(t *testing.T) {
	a, err := GenerateTrace(testSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(testSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	ab, err := MarshalTrace(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := MarshalTrace(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("same seed produced different bytes (%d vs %d)", len(ab), len(bb))
	}
	if len(a.Events) == 0 {
		t.Fatal("trace generated no events")
	}
	c, err := GenerateTrace(testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := MarshalTrace(c)
	if bytes.Equal(ab, cb) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr, err := GenerateTrace(testSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := WriteTraceFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Spec, got.Spec) {
		t.Fatalf("spec round trip mismatch:\n%+v\n%+v", tr.Spec, got.Spec)
	}
	if !reflect.DeepEqual(tr.Events, got.Events) {
		t.Fatalf("events round trip mismatch (%d vs %d events)", len(tr.Events), len(got.Events))
	}
	// Round trip re-encodes to the same bytes.
	orig, _ := MarshalTrace(tr)
	re, _ := MarshalTrace(got)
	if !bytes.Equal(orig, re) {
		t.Fatal("re-encoded trace differs from original bytes")
	}
}

func TestTraceInvariants(t *testing.T) {
	tr, err := GenerateTrace(testSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(tr); err != nil {
		t.Fatal(err)
	}
	// Every built-in cohort shows up at 40 sessions with these weights.
	counts := tr.CohortCounts()
	for _, name := range BuiltinCohortNames() {
		if counts[name] == 0 {
			t.Errorf("cohort %s absent from trace (counts=%v)", name, counts)
		}
	}
	// RAG sessions share the corpus head verbatim.
	var ragFirst [][]int
	for _, ev := range tr.Events {
		if ev.Cohort == "rag" && ev.Turn == 0 {
			ragFirst = append(ragFirst, ev.Prompt)
		}
	}
	if len(ragFirst) < 2 {
		t.Fatalf("need >= 2 rag sessions, got %d", len(ragFirst))
	}
	rag, _ := BuiltinCohort("rag")
	head := ragFirst[0][:rag.SharedPrefixTokens]
	for i, p := range ragFirst {
		if !reflect.DeepEqual(p[:rag.SharedPrefixTokens], head) {
			t.Fatalf("rag session %d does not share the corpus prefix", i)
		}
	}
	// Multi-turn sessions carry think gaps; turn-0 events carry arrivals.
	for _, ev := range tr.Events {
		if ev.Turn > 0 && ev.AtUs != 0 {
			t.Fatalf("event %d: turn %d carries at_us", ev.ID, ev.Turn)
		}
	}
}

func TestValidateTraceRejects(t *testing.T) {
	mk := func() *Trace {
		tr, err := GenerateTrace(testSpec(5))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	cases := []struct {
		name   string
		break_ func(*Trace)
	}{
		{"unknown cohort", func(tr *Trace) { tr.Events[0].Cohort = "nope" }},
		{"out-of-vocab token", func(tr *Trace) { tr.Events[0].Prompt[0] = 64 }},
		{"non-dense id", func(tr *Trace) { tr.Events[1].ID = 99 }},
		{"zero max_tokens", func(tr *Trace) { tr.Events[0].MaxTokens = 0 }},
		{"turn out of order", func(tr *Trace) { tr.Events[0].Turn = 1 }},
	}
	for _, c := range cases {
		tr := mk()
		c.break_(tr)
		if err := ValidateTrace(tr); err == nil {
			t.Errorf("%s: validation passed", c.name)
		}
	}
}

func TestArrivalPatterns(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec ArrivalSpec
	}{
		{"steady", Steady(100, 1_000_000)},
		{"diurnal", Diurnal(50, 300, 1_200_000)},
		{"bursty", Bursty(50, 500, 1_000_000, 200_000, 40_000)},
	} {
		if err := tc.spec.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		g1 := rand.New(rand.NewSource(1))
		g2 := rand.New(rand.NewSource(1))
		a1 := tc.spec.arrivals(g1)
		a2 := tc.spec.arrivals(g2)
		if !reflect.DeepEqual(a1, a2) {
			t.Fatalf("%s: same-seed arrivals differ", tc.name)
		}
		if len(a1) == 0 {
			t.Fatalf("%s: no arrivals", tc.name)
		}
		last := int64(-1)
		for _, at := range a1 {
			if at <= last {
				t.Fatalf("%s: non-monotone arrival %d after %d", tc.name, at, last)
			}
			last = at
		}
		if last >= tc.spec.DurUs() {
			t.Fatalf("%s: arrival %d past duration %d", tc.name, last, tc.spec.DurUs())
		}
	}
	// The diurnal peak third should out-arrive the ramp legs; the burst
	// pattern should cluster arrivals inside burst windows.
	g := rand.New(rand.NewSource(2))
	di := Diurnal(20, 400, 1_200_000)
	mid := 0
	arr := di.arrivals(g)
	for _, at := range arr {
		if at >= 400_000 && at < 800_000 {
			mid++
		}
	}
	if mid*5 <= len(arr)*2 { // peak third should hold well over a third of mass
		t.Fatalf("diurnal peak phase has %d/%d arrivals", mid, len(arr))
	}
}

func TestBuiltinCohortsValid(t *testing.T) {
	for _, name := range BuiltinCohortNames() {
		c, err := BuiltinCohort(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := BuiltinCohort("nope"); err == nil {
		t.Fatal("unknown cohort accepted")
	}
	if len(BuiltinCohortNames()) != 5 {
		t.Fatalf("expected 5 builtin cohorts, got %d", len(BuiltinCohortNames()))
	}
}

func TestDistSample(t *testing.T) {
	g := rand.New(rand.NewSource(9))
	for _, d := range []Dist{Const(7), UniformDist(3, 9), LogUniform(2, 1000)} {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			v := d.Sample(g)
			if v < d.Min {
				t.Fatalf("%s sample %d below min %d", d.Kind, v, d.Min)
			}
			if d.Kind != DistConst && v > d.Max {
				t.Fatalf("%s sample %d above max %d", d.Kind, v, d.Max)
			}
		}
	}
	for _, bad := range []Dist{{Kind: "nope"}, UniformDist(5, 2), LogUniform(0, 5)} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v validated", bad)
		}
	}
}

// Seed audit, part 2: the package never consults the clock or the global
// math/rand source — every rand call goes through an explicit *rand.Rand.
// The hand-rolled AST walk this test used to carry now lives in
// internal/lint as the determinism analyzer (run repo-wide by cplint);
// here it is pointed at just this package.
func TestNoGlobalRand(t *testing.T) {
	m, _, err := lint.LoadPackage("../..", "internal/workload")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Run(lint.Policy{"determinism": {"internal/workload"}}) {
		t.Errorf("%s", f.String())
	}
}
