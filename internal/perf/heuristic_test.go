package perf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/workload"
)

func gttInputs(n int) Inputs {
	return NewInputs(model.Llama3405B(), GTT(), n)
}

// oracleGrid labels a (total context, miss rate) grid with the perf-model
// winner.
func oracleGrid(sys System, totals []int, missRates []float64) []LabeledPoint {
	var pts []workload.Point
	for _, total := range totals {
		for _, mr := range missRates {
			T := min(max(int(mr*float64(total)), 1), total)
			pts = append(pts, workload.Point{T: T, P: total - T})
		}
	}
	return oracleLabels(sys, pts)
}

// §4.2.4 validation: Eq 1's threshold for Llama3 405B is 12.5% — above it
// pass-KV is always selected.
func TestEq1ThresholdLlama(t *testing.T) {
	got := Eq1Threshold(model.Llama3405B())
	if math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("Eq1 threshold = %v, want 0.125 (= 2*8/128)", got)
	}
	// For MHA (NKV == NH) the threshold is 2: pass-KV always wins on size.
	mha := model.Tiny()
	mha.NumKV = mha.NumHeads
	if Eq1Threshold(mha) != 2 {
		t.Fatal("MHA threshold should be 2")
	}
}

// The paper's empirical tipping point is T = 6400 on CP4/GTT; Equation 2's
// static threshold should land in the same few-thousand-token range.
func TestEq2ThresholdMagnitude(t *testing.T) {
	thr := Eq2MinNewTokens(gttInputs(4))
	if thr < 2000 || thr > 12000 {
		t.Fatalf("Eq2 threshold = %.0f tokens, want O(5000) per §4.2.4", thr)
	}
	// Threshold is linear in N.
	if r := Eq2MinNewTokens(gttInputs(8)) / thr; math.Abs(r-2) > 1e-9 {
		t.Fatalf("Eq2 threshold should double with N: ratio %v", r)
	}
}

func TestEq3ThresholdMagnitude(t *testing.T) {
	thr := Eq3MinContext(gttInputs(4))
	if thr <= 0 {
		t.Fatal("Eq3 threshold must be positive")
	}
	// Eq 3's context threshold is much larger than Eq 2's new-token
	// threshold for GQA models (C*e/4BW vs C*NKV*e/2*NH*BW).
	if thr <= Eq2MinNewTokens(gttInputs(4)) {
		t.Fatal("Eq3 context threshold should exceed Eq2 new-token threshold for Llama3")
	}
}

// Algorithm 1 limit cases from §3.4: full prefill (P=0) selects pass-KV for
// GQA models with NH > 2*NKV; decode (T=1) with a long cache selects pass-Q.
func TestAlgorithm1LimitCases(t *testing.T) {
	in := gttInputs(4)
	if got := Algorithm1(in, 128000, 0); got != PassKV {
		t.Fatalf("full prefill chose %v, want pass-KV", got)
	}
	if got := Algorithm1(in, 1, 127999); got != PassQ {
		t.Fatalf("decode-like chose %v, want pass-Q", got)
	}
	// Table 4 extremes: 1% miss -> pass-Q; 20%+ miss -> pass-KV (Eq 1).
	if got := Algorithm1(in, 1280, 126720); got != PassQ {
		t.Fatalf("1%% miss chose %v, want pass-Q", got)
	}
	if got := Algorithm1(in, 25600, 102400); got != PassKV {
		t.Fatalf("20%% miss chose %v, want pass-KV", got)
	}
}

// §4.2.4: "When the KV cache miss rate exceeds 12.5%, pass-KV is always
// selected, meeting the 2nd condition in Algorithm 1."
func TestAlgorithm1MissRateRule(t *testing.T) {
	in := gttInputs(4)
	for _, total := range []int{1000, 50000, 128000} {
		for _, missPct := range []int{13, 20, 50, 100} {
			T := total * missPct / 100
			if T == 0 {
				continue
			}
			if got := Algorithm1(in, T, total-T); got != PassKV {
				t.Fatalf("miss %d%% of %d chose %v, want pass-KV", missPct, total, got)
			}
		}
	}
}

// Appendix C: accounting for the All2All can only shift selections from
// pass-Q to pass-KV, never the other way.
func TestAlgorithm5NeverMoreEagerForPassQ(t *testing.T) {
	in := gttInputs(4)
	f := func(rawT uint16, rawP uint32) bool {
		T := int(rawT)%128000 + 1
		P := int(rawP) % 1000000
		a1 := Algorithm1(in, T, P)
		a5 := Algorithm5(in, T, P)
		if a1 == PassKV && a5 == PassQ {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithm5DisagreementRegionExists(t *testing.T) {
	// There must be workloads where the All2All correction flips pass-Q to
	// pass-KV (otherwise Algorithm 5 would be pointless).
	in := gttInputs(4)
	found := false
	for T := 100; T <= 6000; T += 100 {
		P := 128000 - T
		if Algorithm1(in, T, P) == PassQ && Algorithm5(in, T, P) == PassKV {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no workload where Algorithm 5 differs from Algorithm 1")
	}
}

func TestPaperEmpiricalConstants(t *testing.T) {
	e := PaperEmpirical()
	if e.Alpha != -1.059 || e.Beta != 1.145 || e.Gamma != 12.112 {
		t.Fatalf("paper constants changed: %+v", e)
	}
	// β > 0: higher miss rate pushes toward pass-KV (Figure 10's trend).
	if e.Beta <= 0 {
		t.Fatal("beta must be positive")
	}
	// The paper's selector must prefer pass-Q at Table 4's 1% row.
	if e.Choose(1280, 126720) != PassQ {
		t.Fatal("paper selector should choose pass-Q at 1% miss, T=1280")
	}
}

func TestEmpiricalThresholdIncreasesWithT(t *testing.T) {
	// Appendix D: "the threshold increases as T increases".
	// The decision boundary h(T, P) = 0 solved for the miss rate.
	e := PaperEmpirical()
	prev := 0.0
	for _, T := range []int{100, 1000, 10000, 100000} {
		thr := math.Exp(-(e.Alpha*math.Log(float64(T)) + e.Gamma) / e.Beta)
		if thr <= prev {
			t.Fatalf("threshold at T=%d is %v, not increasing (prev %v)", T, thr, prev)
		}
		prev = thr
	}
}

func TestFitEmpiricalSeparatesSyntheticBoundary(t *testing.T) {
	// Construct points from a known ground-truth boundary and check the fit
	// recovers a consistent classifier.
	truth := Empirical{Alpha: -1, Beta: 1.2, Gamma: 10}
	var pts []LabeledPoint
	for _, T := range []int{64, 256, 1024, 4096, 16384, 65536} {
		for _, mr := range []float64{0.001, 0.01, 0.05, 0.2, 1.0} {
			total := int(float64(T) / mr)
			P := total - T
			if P < 0 {
				P = 0
			}
			pts = append(pts, LabeledPoint{T: T, P: P, Best: truth.Choose(T, P)})
		}
	}
	fit, err := FitEmpirical(pts)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for _, p := range pts {
		if fit.Choose(p.T, p.P) == truth.Choose(p.T, p.P) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(pts)); frac < 0.9 {
		t.Fatalf("fit agrees with ground truth on %.0f%% of points, want >= 90%%", frac*100)
	}
}

func TestFitEmpiricalErrors(t *testing.T) {
	if _, err := FitEmpirical(nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	allKV := []LabeledPoint{{T: 10, P: 0, Best: PassKV}, {T: 20, P: 0, Best: PassKV}, {T: 30, P: 0, Best: PassKV}}
	if _, err := FitEmpirical(allKV); err == nil {
		t.Fatal("single-class fit accepted")
	}
	bad := []LabeledPoint{{T: 0, P: 0, Best: PassKV}, {T: 1, P: 1, Best: PassQ}, {T: 2, P: 2, Best: PassKV}}
	if _, err := FitEmpirical(bad); err == nil {
		t.Fatal("non-positive T accepted")
	}
}

// End-to-end Appendix D methodology: label a grid with the perf oracle, fit
// the log-linear model, and require high agreement plus low regret.
func TestFittedSelectorBeatsChanceOnOracle(t *testing.T) {
	sys := gtt(4, 1)
	totals := []int{32000, 64000, 128000, 256000}
	missRates := []float64{0.005, 0.01, 0.02, 0.04, 0.08, 0.15, 0.3, 0.6, 1.0}
	grid := oracleGrid(sys, totals, missRates)
	fit, err := FitEmpirical(grid)
	if err != nil {
		t.Fatal(err)
	}
	ev := evaluate(sys, fit.Choose, grid)
	if ev.accuracy() < 0.85 {
		t.Fatalf("fitted selector accuracy %.2f, want >= 0.85", ev.accuracy())
	}
	if ev.MeanRegret > 0.02 {
		t.Fatalf("fitted selector mean regret %.3f, want <= 2%%", ev.MeanRegret)
	}
	// The paper's observation: misclassified points sit where the variants
	// differ by little. Our regret ceiling encodes the same claim.
	if ev.WorstRegret > 0.40 {
		t.Fatalf("fitted selector worst regret %.3f, too large", ev.WorstRegret)
	}
}

// Algorithm 1 and 5 evaluated against the oracle must both achieve solid
// accuracy, and Algorithm 5 must not be worse than Algorithm 1 in regret.
func TestAnalyticalHeuristicsAgainstOracle(t *testing.T) {
	sys := gtt(4, 1)
	in := gttInputs(4)
	grid := oracleGrid(sys,
		[]int{64000, 128000, 256000},
		[]float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.2, 0.5, 1.0})
	a1 := evaluate(sys, func(T, P int) Variant { return Algorithm1(in, T, P) }, grid)
	a5 := evaluate(sys, func(T, P int) Variant { return Algorithm5(in, T, P) }, grid)
	if a1.accuracy() < 0.7 {
		t.Fatalf("Algorithm 1 accuracy %.2f too low", a1.accuracy())
	}
	if a5.accuracy() < 0.7 {
		t.Fatalf("Algorithm 5 accuracy %.2f too low", a5.accuracy())
	}
	if a1.MeanRegret > 0.05 || a5.MeanRegret > 0.05 {
		t.Fatalf("mean regret too high: alg1 %.3f alg5 %.3f", a1.MeanRegret, a5.MeanRegret)
	}
}

func TestEvaluateEmptyGrid(t *testing.T) {
	ev := evaluate(gtt(2, 1), PaperEmpirical().Choose, nil)
	if ev.accuracy() != 0 || ev.Points != 0 {
		t.Fatal("empty grid should evaluate to zero")
	}
}

func TestOracleGridCoversBothClasses(t *testing.T) {
	grid := oracleGrid(gtt(4, 1), []int{128000}, []float64{0.005, 0.01, 0.1, 0.5, 1.0})
	var kv, q int
	for _, g := range grid {
		if g.Best == PassKV {
			kv++
		} else {
			q++
		}
	}
	if kv == 0 || q == 0 {
		t.Fatalf("oracle grid one-sided: kv=%d q=%d (crossover missing)", kv, q)
	}
}
