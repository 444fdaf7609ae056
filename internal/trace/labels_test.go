package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

var testCohorts = []string{"chat", "code", "summarization", "agentic", "rag"}

func randomLabeledSnaps(rng *rand.Rand) []SeriesSnap {
	var out []SeriesSnap
	for _, c := range testCohorts {
		sn := SeriesSnap{
			Name: "cp_cohort_ttft_seconds", Kind: KindHistogram,
			Labels: []Label{L("cohort", c)},
			Counts: make([]uint64, len(BucketBounds)+1),
		}
		for i := range sn.Counts {
			sn.Counts[i] = uint64(rng.Intn(5))
			sn.Count += sn.Counts[i]
			sn.Sum += float64(rng.Intn(50)) // integer sums: float addition exact
		}
		out = append(out, sn)
	}
	return out
}

// Labeled-family merge associativity AND commutativity: per cohort label,
// folding three ranks' deltas in any grouping or order yields the same
// exposition — the property that makes cross-rank per-cohort histograms
// trustworthy.
func TestLabeledMergeAssociativityCommutativity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prom := func(batches ...[]SeriesSnap) string {
		r := New()
		for _, b := range batches {
			r.MergeSeries(b)
		}
		var buf bytes.Buffer
		if err := r.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for trial := 0; trial < 30; trial++ {
		a := randomLabeledSnaps(rng)
		b := randomLabeledSnaps(rng)
		c := randomLabeledSnaps(rng)

		// Associativity: (a+b)+c == a+(b+c).
		left := New()
		left.MergeSeries(a)
		left.MergeSeries(b)
		_, ab := left.Drain()
		right := New()
		right.MergeSeries(b)
		right.MergeSeries(c)
		_, bc := right.Drain()
		if got, want := prom(ab, c), prom(a, bc); got != want {
			t.Fatalf("labeled merge not associative:\n%s\nvs\n%s", got, want)
		}
		// Commutativity: any rank arrival order.
		if got, want := prom(a, b, c), prom(c, a, b); got != want {
			t.Fatalf("labeled merge not commutative:\n%s\nvs\n%s", got, want)
		}
	}
}

// Per-cohort quantile-vs-sorted-oracle: each cohort's labeled histogram
// reports exactly the smallest bucket bound reaching q·n over that cohort's
// own samples, unaffected by the other cohorts sharing the family.
func TestLabeledQuantileMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r := New()
	samples := map[string][]float64{}
	for _, c := range testCohorts {
		h := r.Hist("cp_cohort_itl_seconds", L("cohort", c))
		n := 50 + rng.Intn(300)
		for i := 0; i < n; i++ {
			v := math.Exp(rng.Float64()*math.Log(1e9)) * 1e-7
			samples[c] = append(samples[c], v)
			h.Observe(v)
		}
		sort.Float64s(samples[c])
	}
	for _, c := range testCohorts {
		s := samples[c]
		n := len(s)
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			target := q * float64(n)
			oracle := BucketBounds[len(BucketBounds)-1]
			for _, b := range BucketBounds {
				cnt := sort.SearchFloat64s(s, b)
				for cnt < n && s[cnt] <= b {
					cnt++
				}
				if float64(cnt) >= target {
					oracle = b
					break
				}
			}
			if got := r.Hist("cp_cohort_itl_seconds", L("cohort", c)).Quantile(q); got != oracle {
				t.Fatalf("cohort %s q=%v: got %v want %v", c, q, got, oracle)
			}
		}
	}
}

func TestLabelPoolBasics(t *testing.T) {
	p := NewLabelPool(8, "chat", "rag")
	if got := p.Canon("chat"); got != "chat" {
		t.Fatalf("pre-registered chat canonicalized to %q", got)
	}
	if got := p.Canon(""); got != OverflowLabel {
		t.Fatalf("empty label canonicalized to %q", got)
	}
	if p.ID(OverflowLabel) != 0 {
		t.Fatalf("overflow id %d, want 0", p.ID(OverflowLabel))
	}
	// Ids are stable across calls.
	a, b := p.ID("rag"), p.ID("rag")
	if a != b || a == 0 {
		t.Fatalf("rag ids %d, %d", a, b)
	}
	names := p.names
	if names[0] != OverflowLabel || len(names) != 3 {
		t.Fatalf("names %v", names)
	}
	var nilPool *LabelPool
	if nilPool.Canon("x") != OverflowLabel || nilPool.ID("x") != 0 {
		t.Fatal("nil pool not safe")
	}
}

// Unknown-label hygiene: a client spraying fresh label values mints at most
// cap new series; everything else lands on "other". The recorder's series
// count stays bounded no matter how many distinct values arrive.
func TestLabelPoolBoundedCardinality(t *testing.T) {
	const cap = 4
	p := NewLabelPool(cap, "chat")
	r := New()
	for i := 0; i < 200; i++ {
		c := p.Canon(fmt.Sprintf("adversarial-%d", i))
		r.Hist("cp_cohort_ttft_seconds", L("cohort", c)).Observe(0.001)
	}
	if len(p.names) > cap+1 { // +1 for OverflowLabel
		t.Fatalf("pool grew to %d values (cap %d)", len(p.names), cap)
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	series := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "cp_cohort_ttft_seconds_count") {
			series++
		}
	}
	if series > cap+1 {
		t.Fatalf("%d labeled series in exposition (cap %d)", series, cap)
	}
	if !strings.Contains(buf.String(), `cohort="`+OverflowLabel+`"`) {
		t.Fatal("overflow label absent from exposition")
	}
	// The overflow series absorbed the tail: total observations preserved.
	total := uint64(0)
	for _, c := range p.names {
		total += r.Hist("cp_cohort_ttft_seconds", L("cohort", c)).HistCount()
	}
	if total != 200 {
		t.Fatalf("observations lost under overflow: %d/200", total)
	}
}
