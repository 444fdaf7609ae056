package transformer

import (
	"fmt"

	"repro/internal/attention"
	"repro/internal/tensor"
)

// Forward is the single-device reference: exact logits for every position
// of a full causal pass over the token sequence. It is the oracle the
// context-parallel Cluster is verified against.
func (w *Weights) Forward(tokens []int) ([][]float32, error) {
	n := len(tokens)
	if n == 0 {
		return nil, fmt.Errorf("transformer: empty sequence")
	}
	m := w.Cfg.Model
	hidden, err := w.embedTokens(tokens)
	if err != nil {
		return nil, err
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	var sweep []float32 // the sweeps' block scratch
	q, k, v := tensor.New(n, m.NumHeads, m.HeadDim), tensor.New(n, m.NumKV, m.HeadDim), tensor.New(n, m.NumKV, m.HeadDim)
	for l := 0; l < m.Layers; l++ {
		w.projectQKVInto(&sweep, q, k, v, l, hidden, pos)
		out, err := attention.GQA(q, k, v, attention.FullCausal(n))
		if err != nil {
			return nil, err
		}
		w.finishLayer(&sweep, l, hidden, out.O)
	}
	flat := make([]float32, n*m.VocabSize)
	w.logitsInto(&sweep, flat, hidden, n)
	out := make([][]float32, n)
	for t := 0; t < n; t++ {
		out[t] = flat[t*m.VocabSize : (t+1)*m.VocabSize]
	}
	return out, nil
}

// Argmax returns the index of the largest logit (greedy decoding). It is
// the one sampler: the ranks run it on the rows they hold, and the oracles
// on the rows they return, so its rule is stated once, here:
//
//   - on a tie, the lowest index wins;
//   - a NaN at index 0 wins;
//   - a NaN at any later index never wins;
//   - a row of NaNs, a row of −Inf and an empty row all return 0.
//
// (Each later logit must compare greater than the best so far, and no
// comparison with a NaN is true.)
func Argmax(logits []float32) int {
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}

// GenerateReference greedily extends a prompt for `steps` tokens using the
// reference Forward (recomputing the full sequence each step — the oracle
// trades speed for obvious correctness).
func (w *Weights) GenerateReference(prompt []int, steps int) ([]int, error) {
	seq := append([]int(nil), prompt...)
	for i := 0; i < steps; i++ {
		logits, err := w.Forward(seq)
		if err != nil {
			return nil, err
		}
		seq = append(seq, Argmax(logits[len(seq)-1]))
	}
	return seq[len(prompt):], nil
}
