package perf

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/workload"
)

// The pass-KV versus pass-Q selection logic: the analytical thresholds of
// §3.4 (Equations 1-3), the partial prefill heuristics Algorithm 1 and its
// All2All-aware refinement Algorithm 5 (Appendix C), and the empirical
// log-linear selector of Appendix D, h(T,P) = α·log(T) + β·log(T/(T+P)) + γ,
// together with a least-squares fitter that learns (α, β, γ) from labeled
// data points.
//
// The heuristics take a model configuration and per-rank hardware rates. The
// paper starts from hardware peaks and fine-tunes thresholds empirically
// (§3.4 footnote); the same flow here uses the platforms' calibrated
// achieved rates.

// Inputs captures the quantities the analytical heuristics need: the model
// shape and the per-CP-rank compute and communication rates.
type Inputs struct {
	Model model.Config
	N     int     // number of CP ranks
	C     float64 // attention compute rate per CP rank, FLOP/s
	BW    float64 // ring communication bandwidth per CP rank, bytes/s
}

// NewInputs derives heuristic inputs from a platform: one CP rank is a full
// host, so per-rank rates aggregate the host's GPUs (the paper forms one
// ring per KV head across hosts, Figure 5).
func NewInputs(m model.Config, p Platform, n int) Inputs {
	return Inputs{
		Model: m,
		N:     n,
		C:     float64(p.GPUsPerHost) * p.AttnRate(),
		BW:    float64(p.GPUsPerHost) * p.EffectiveInterBW(),
	}
}

// Eq1Threshold returns the KV-cache miss-rate threshold 2·NKV/NH of
// Equation 1: below it, Q embeddings are the smaller message.
func Eq1Threshold(c model.Config) float64 {
	return 2 * c.KVRatio()
}

// Eq2MinNewTokens returns the static new-token threshold of Equation 2:
// with T at or above it, ring pass-KV communication hides under attention
// regardless of the cache hit rate.
func Eq2MinNewTokens(in Inputs) float64 {
	return float64(in.N) * in.C * float64(in.Model.NumKV) * in.Model.ElemBytes /
		(2 * float64(in.Model.NumHeads) * in.BW)
}

// Eq3MinContext returns the static total-context threshold of Equation 3:
// with T+P at or above it, ring pass-Q communication hides under attention.
func Eq3MinContext(in Inputs) float64 {
	return float64(in.N) * in.Model.ElemBytes * in.C / (4 * in.BW)
}

// Algorithm1 is the paper's partial-prefill heuristic: pass-KV when the new
// tokens are long enough to hide KV communication (Equation 2) or when the
// miss rate makes KV the smaller message (Equation 1); otherwise pass-Q.
func Algorithm1(in Inputs, T, P int) Variant {
	if float64(T) >= Eq2MinNewTokens(in) || model.MissRate(T, P) >= Eq1Threshold(in.Model) {
		return PassKV
	}
	return PassQ
}

// Algorithm5 refines Algorithm 1 by charging pass-Q for its All2All
// (Equation 5, Appendix C): the miss-rate threshold for selecting pass-Q
// drops by 4·T·BW/(N·C·e).
func Algorithm5(in Inputs, T, P int) Variant {
	adjusted := Eq1Threshold(in.Model) - 4*float64(T)*in.BW/(float64(in.N)*in.C*in.Model.ElemBytes)
	if float64(T) >= Eq2MinNewTokens(in) || model.MissRate(T, P) >= adjusted {
		return PassKV
	}
	return PassQ
}

// ---------------------------------------------------------------------------
// Empirical selector (Appendix D).
// ---------------------------------------------------------------------------

// Empirical is the log-linear selector h(T,P) = α·ln(T) + β·ln(T/(T+P)) + γ;
// pass-KV is preferred when h is positive.
type Empirical struct {
	Alpha, Beta, Gamma float64
}

// PaperEmpirical returns the constants the paper reports from fitting its
// production measurements: α = −1.059, β = 1.145, γ = 12.112.
func PaperEmpirical() Empirical {
	return Empirical{Alpha: -1.059, Beta: 1.145, Gamma: 12.112}
}

// Score evaluates h(T, P). T must be positive.
func (e Empirical) Score(T, P int) float64 {
	return e.Alpha*math.Log(float64(T)) + e.Beta*math.Log(model.MissRate(T, P)) + e.Gamma
}

// Choose returns pass-KV when the score is positive, pass-Q otherwise.
func (e Empirical) Choose(T, P int) Variant {
	if e.Score(T, P) > 0 {
		return PassKV
	}
	return PassQ
}

// LabeledPoint is one training observation: a workload and which variant
// actually won.
type LabeledPoint struct {
	T, P int
	Best Variant
}

// FitEmpirical fits (α, β, γ) by least squares on ±1 labels (+1 = pass-KV)
// over features (ln T, ln miss-rate, 1), solving the 3×3 normal equations.
// It requires at least one point of each class.
func FitEmpirical(points []LabeledPoint) (Empirical, error) {
	if len(points) < 3 {
		return Empirical{}, fmt.Errorf("perf: need at least 3 points, got %d", len(points))
	}
	var nKV, nQ int
	var ata [3][3]float64
	var atb [3]float64
	for _, p := range points {
		if p.T <= 0 || p.P < 0 {
			return Empirical{}, fmt.Errorf("perf: invalid point T=%d P=%d", p.T, p.P)
		}
		x := [3]float64{math.Log(float64(p.T)), math.Log(model.MissRate(p.T, p.P)), 1}
		y := -1.0
		if p.Best == PassKV {
			y = 1
			nKV++
		} else {
			nQ++
		}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				ata[i][j] += x[i] * x[j]
			}
			atb[i] += x[i] * y
		}
	}
	if nKV == 0 || nQ == 0 {
		return Empirical{}, fmt.Errorf("perf: need both classes (pass-KV=%d pass-Q=%d)", nKV, nQ)
	}
	sol, err := solve3(ata, atb)
	if err != nil {
		return Empirical{}, err
	}
	return Empirical{Alpha: sol[0], Beta: sol[1], Gamma: sol[2]}, nil
}

// solve3 solves a 3x3 linear system by Gaussian elimination with partial
// pivoting.
func solve3(a [3][3]float64, b [3]float64) ([3]float64, error) {
	var m [3][4]float64
	for i := 0; i < 3; i++ {
		copy(m[i][:3], a[i][:])
		m[i][3] = b[i]
	}
	for col := 0; col < 3; col++ {
		pivot := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return [3]float64{}, fmt.Errorf("perf: singular normal equations")
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c < 4; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	var out [3]float64
	for i := 0; i < 3; i++ {
		out[i] = m[i][3] / m[i][i]
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Evaluation against the performance-model oracle.
// ---------------------------------------------------------------------------

// selector is any pass-KV/pass-Q chooser.
type selector func(T, P int) Variant

// evaluation summarizes a selector's quality against the perf-model oracle
// over a workload grid.
type evaluation struct {
	Points      int
	Agreements  int
	MeanRegret  float64 // mean relative TTFT excess over the oracle choice
	WorstRegret float64
}

// accuracy returns the agreement fraction.
func (e evaluation) accuracy() float64 {
	if e.Points == 0 {
		return 0
	}
	return float64(e.Agreements) / float64(e.Points)
}

// evaluate scores a selector on the given (T, P) grid using sys's perf model
// as ground truth. Regret on a point is (chosen − best) / best in predicted
// TTFT.
func evaluate(sys System, sel selector, grid []LabeledPoint) evaluation {
	var ev evaluation
	for _, g := range grid {
		kv := sys.Prefill(g.T, g.P, PassKV).Total
		q := sys.Prefill(g.T, g.P, PassQ).Total
		best, bestLat := PassKV, kv
		if q < kv {
			best, bestLat = PassQ, q
		}
		choice := sel(g.T, g.P)
		chosenLat := kv
		if choice == PassQ {
			chosenLat = q
		}
		ev.Points++
		if choice == best {
			ev.Agreements++
		}
		regret := (chosenLat - bestLat) / bestLat
		ev.MeanRegret += regret
		if regret > ev.WorstRegret {
			ev.WorstRegret = regret
		}
	}
	if ev.Points > 0 {
		ev.MeanRegret /= float64(ev.Points)
	}
	return ev
}

// oracleLabels labels workloads with the perf-model winner, the training
// data for FitEmpirical (the Figure 10 methodology with the analytical model
// standing in for production measurements).
func oracleLabels(sys System, pts []workload.Point) []LabeledPoint {
	out := make([]LabeledPoint, 0, len(pts))
	for _, p := range pts {
		best, _, _ := sys.PrefillBest(p.T, p.P)
		out = append(out, LabeledPoint{T: p.T, P: p.P, Best: best})
	}
	return out
}
