package perf

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

const tol = 1e-9

// scaleRankCompute multiplies one rank's compute times by f (a compute
// straggler).
func scaleRankCompute(s RingSpec, rank int, f float64) {
	for j := range s.Compute[rank] {
		s.Compute[rank][j] *= f
	}
}

func TestRingSpecValidate(t *testing.T) {
	if err := Uniform(4, 1, 0.5, 0).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Uniform(2, 1, 1, 0)
	bad.Compute = bad.Compute[:1]
	if bad.Validate() == nil {
		t.Fatal("short compute accepted")
	}
	neg := Uniform(2, 1, 1, 0)
	neg.Compute[0][0] = -1
	if neg.Validate() == nil {
		t.Fatal("negative duration accepted")
	}
	if (RingSpec{N: 0}).Validate() == nil {
		t.Fatal("zero ranks accepted")
	}
}

// The cross-validation at the heart of this package: for uniform rings the
// event-driven makespan must equal the perf model's closed form exactly.
func TestUniformMatchesClosedForm(t *testing.T) {
	cases := []struct {
		n                  int
		compute, xfer, a2a float64
	}{
		{1, 3, 0, 0},
		{2, 1, 0.5, 0},     // compute-bound: comm fully hidden
		{4, 1, 0.5, 0},     // compute-bound
		{4, 0.5, 2, 0},     // comm-bound: SendRecv exposed
		{8, 1, 1, 0},       // balanced
		{4, 1, 0.25, 0.75}, // pass-Q with All2All tail
		{3, 0.2, 1.5, 0.3}, // comm-bound pass-Q
	}
	for _, c := range cases {
		res, err := SimulateRing(Uniform(c.n, c.compute, c.xfer, c.a2a))
		if err != nil {
			t.Fatal(err)
		}
		want := ClosedForm(c.n, c.compute, c.xfer, c.a2a)
		if math.Abs(res.Makespan-want) > tol {
			t.Errorf("n=%d compute=%v xfer=%v a2a=%v: makespan %v, closed form %v",
				c.n, c.compute, c.xfer, c.a2a, res.Makespan, want)
		}
	}
}

func TestExposedCommMatchesDefinition(t *testing.T) {
	// Comm-bound uniform ring: per iteration the rank waits xfer-compute.
	res, err := SimulateRing(Uniform(4, 0.5, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	wantExposed := 3 * (2 - 0.5) // (N-1) * (xfer - compute)
	for r, e := range res.ExposedComm {
		if math.Abs(e-wantExposed) > tol {
			t.Errorf("rank %d exposed %v, want %v", r, e, wantExposed)
		}
	}
	// Compute-bound: nothing exposed.
	res2, _ := SimulateRing(Uniform(4, 2, 0.5, 0))
	for r, e := range res2.ExposedComm {
		if e > tol {
			t.Errorf("rank %d exposed %v in compute-bound ring", r, e)
		}
	}
}

// A compute straggler does not delay other ranks: forwarding never waits
// for compute, so only the slow rank's own finish time grows.
func TestComputeStragglerLocalized(t *testing.T) {
	spec := Uniform(4, 1, 0.25, 0)
	scaleRankCompute(spec, 2, 1.5)
	res, err := SimulateRing(spec)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := SimulateRing(Uniform(4, 1, 0.25, 0))
	for r := 0; r < 4; r++ {
		if r == 2 {
			if math.Abs(res.RankFinish[r]-1.5*base.RankFinish[r]) > tol {
				t.Errorf("straggler rank finish %v, want %v", res.RankFinish[r], 1.5*base.RankFinish[r])
			}
			continue
		}
		if math.Abs(res.RankFinish[r]-base.RankFinish[r]) > tol {
			t.Errorf("rank %d delayed by a compute straggler: %v vs %v", r, res.RankFinish[r], base.RankFinish[r])
		}
	}
}

// A slow link is absorbed while its transfer stays under the per-iteration
// compute, and only surfaces beyond that — the paper's GTI robustness story
// in discrete-event form.
func TestSlowLinkAbsorption(t *testing.T) {
	base, _ := SimulateRing(Uniform(4, 1, 0.25, 0))
	absorbed := Uniform(4, 1, 0.25, 0)
	absorbed.ScaleLinkXfer(1, 3) // 0.75 < compute 1.0: still hidden
	resA, err := SimulateRing(absorbed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resA.Makespan-base.Makespan) > tol {
		t.Errorf("slow-but-hidden link changed makespan: %v vs %v", resA.Makespan, base.Makespan)
	}
	exposed := Uniform(4, 1, 0.25, 0)
	exposed.ScaleLinkXfer(1, 8) // 2.0 > compute: must surface
	resE, _ := SimulateRing(exposed)
	if resE.Makespan <= base.Makespan {
		t.Errorf("slow link did not surface: %v vs %v", resE.Makespan, base.Makespan)
	}
}

func TestAll2AllWaitsForSlowestRank(t *testing.T) {
	spec := Uniform(3, 1, 0.1, 0.5)
	scaleRankCompute(spec, 0, 2)
	res, err := SimulateRing(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 finishes its partials at 6 (3 iterations x 2s); All2All starts
	// there for everyone and ends 0.5 later.
	if math.Abs(res.Makespan-6.5) > tol {
		t.Fatalf("makespan %v, want 6.5", res.Makespan)
	}
	for r, f := range res.RankFinish {
		if math.Abs(f-6.5) > tol {
			t.Fatalf("rank %d finish %v, want 6.5 (collective exit)", r, f)
		}
	}
}

func TestTimelineWellFormed(t *testing.T) {
	res, err := SimulateRing(Uniform(3, 1, 0.5, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	computeCount := 0
	for _, s := range res.Timeline {
		if s.Dur < 0 {
			t.Fatalf("span ends before start: %+v", s)
		}
		if s.Name == spanCompute {
			computeCount++
		}
	}
	if computeCount != 9 {
		t.Fatalf("compute spans = %d, want 9 (3 ranks x 3 iters)", computeCount)
	}
	// Sorted by start time.
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].Start < res.Timeline[i-1].Start {
			t.Fatal("timeline not sorted")
		}
	}
}

func TestGanttRenders(t *testing.T) {
	res, _ := SimulateRing(Uniform(2, 1, 0.5, 0.25))
	g := res.Gantt(0.25)
	if !strings.Contains(g, "rank 0") || !strings.Contains(g, "#") || !strings.Contains(g, "=") {
		t.Fatalf("gantt output missing elements:\n%s", g)
	}
	if (&RingResult{}).Gantt(0.1) != "" {
		t.Fatal("empty result should render empty")
	}
}

// Property: the makespan is bounded below by every rank's total compute and
// is monotone under inflating any single duration.
func TestPropertyMakespanBounds(t *testing.T) {
	f := func(seed int64, rawN, rawR, rawJ uint8) bool {
		n := int(rawN%4) + 2
		rng := newRng(seed)
		spec := Uniform(n, 0, 0, 0)
		for r := 0; r < n; r++ {
			for j := 0; j < n; j++ {
				spec.Compute[r][j] = rng.f()
				if j < n-1 {
					spec.Xfer[r][j] = rng.f()
				}
			}
		}
		res, err := SimulateRing(spec)
		if err != nil {
			return false
		}
		for r := 0; r < n; r++ {
			var tot float64
			for j := 0; j < n; j++ {
				tot += spec.Compute[r][j]
			}
			if res.Makespan < tot-tol {
				return false
			}
		}
		// Inflate one random duration; makespan must not shrink.
		r := int(rawR) % n
		j := int(rawJ) % n
		spec.Compute[r][j] += 1
		res2, err := SimulateRing(spec)
		if err != nil {
			return false
		}
		return res2.Makespan >= res.Makespan-tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Tiny xorshift so the property test controls its own randomness cheaply.
type rng struct{ s uint64 }

func newRng(seed int64) *rng { return &rng{s: uint64(seed)*2654435761 + 1} }
func (r *rng) f() float64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return float64(r.s%1000) / 500.0
}
