package transformer

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/comm/wire"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/tensor"
)

// sampledPair drives the same commands through two clusters of one set of
// weights: all serves every prefill through the all-rows path (Prefill and
// PrefillBatch, the oracle), last through the sampled-row path. Each
// prefill's sampled rows must equal the oracle's last rows bit for bit, and
// the eight decode steps after it identical logits on both clusters, which
// holds only if the narrowed last layer left every KV row and mirror where
// the full one puts them.
type sampledPair struct {
	t         *testing.T
	all, last *Cluster
	vocab     int
}

func (p *sampledPair) prefill(seqs []int, toks [][]int, v model.Variant, what string) {
	p.t.Helper()
	want, err := p.all.PrefillBatch(seqs, toks, v)
	if err != nil {
		p.t.Fatalf("%s (every row): %v", what, err)
	}
	var got [][][]float32
	if len(seqs) == 1 {
		row, err := p.last.PrefillLast(seqs[0], toks[0], v)
		if err != nil {
			p.t.Fatalf("%s (sampled row): %v", what, err)
		}
		got = [][][]float32{{row}}
	} else if got, err = p.last.prefill(seqs, toks, v, false); err != nil {
		p.t.Fatalf("%s (sampled rows): %v", what, err)
	}
	for i := range seqs {
		if len(got[i]) != 1 {
			p.t.Fatalf("%s: sequence %d got %d sampled rows", what, seqs[i], len(got[i]))
		}
		requireExact(p.t, got[i][0], want[i][len(want[i])-1], fmt.Sprintf("%s: sequence %d's sampled row", what, seqs[i]))
	}
	toks1 := make([]int, len(seqs))
	for i := range toks1 {
		toks1[i] = Argmax(want[i][len(want[i])-1])
	}
	for step := 0; step < 8; step++ {
		a, err := p.all.DecodeBatch(seqs, toks1)
		if err != nil {
			p.t.Fatal(err)
		}
		b, err := p.last.DecodeBatch(seqs, toks1)
		if err != nil {
			p.t.Fatal(err)
		}
		sameLogits(p.t, fmt.Sprintf("%s: decode step %d", what, step), b, a)
		for i := range toks1 {
			toks1[i] = Argmax(a[i])
		}
	}
}

// script runs the sampled-row scenarios: for pass-KV, pass-Q and model.Auto,
// chunks of 1, 7, 300 and 512 tokens into one sequence (a one-token chunk
// leaves every rank but one with no sampled row); a fused three-sequence
// batch, whose last rows fall on different ranks; and a warm chunk on a
// prefix adopted from a donor.
func (p *sampledPair) script() {
	seq := 2
	for _, v := range []model.Variant{model.PassKV, model.PassQ, model.Auto} {
		for i, n := range []int{1, 7, 300, 512} {
			p.prefill([]int{seq}, [][]int{arenaChunk(n, seq*5+i, p.vocab)}, v, fmt.Sprintf("%v chunk %d (%d tokens)", v, i, n))
		}
		seq++
	}
	fused := []int{seq, seq + 1, seq + 2}
	p.prefill(fused, [][]int{arenaChunk(5, 1, p.vocab), arenaChunk(300, 2, p.vocab), arenaChunk(1, 3, p.vocab)}, model.PassKV, "fused batch")
	p.prefill(fused, [][]int{arenaChunk(9, 4, p.vocab), arenaChunk(2, 5, p.vocab), arenaChunk(40, 6, p.vocab)}, model.PassQ, "fused batch, second turn")
	donor, warm := seq+3, seq+4
	for _, c := range []*Cluster{p.all, p.last} {
		if _, err := c.Prefill(donor, arenaChunk(300, 7, p.vocab), model.PassKV); err != nil {
			p.t.Fatal(err)
		}
		pre, err := c.DetachPrefix(donor, 300)
		if err != nil {
			p.t.Fatal(err)
		}
		c.Drop(donor)
		if err := c.AdoptPrefix(warm, pre); err != nil {
			p.t.Fatal(err)
		}
		pre.Release()
	}
	p.prefill([]int{warm}, [][]int{arenaChunk(20, 8, p.vocab)}, model.Auto, "warm chunk on an adopted prefix")
}

// PrefillLast computes only the row serving samples; that row, and everything
// the command leaves behind, must be exactly what the all-rows prefill gives.
// N = 1..4 in process, and at N = 2 over two RunWorker ranks on loopback
// sockets, where the ranks holding no sampled row send an empty logits
// tensor through the wire codec.
func TestPrefillLastMatchesPrefill(t *testing.T) {
	cfg := Tiny(41)
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	newCluster := func(n int) *Cluster {
		c, err := NewCluster(w, n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	for _, n := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			p := &sampledPair{t: t, all: newCluster(n), last: newCluster(n), vocab: cfg.Model.VocabSize}
			p.script()
		})
	}
	t.Run("loopback", func(t *testing.T) {
		p := &sampledPair{t: t, all: newCluster(2), last: startLoopbackCluster(t, cfg, 2, 0), vocab: cfg.Model.VocabSize}
		p.script()
	})
}

// prefillLogits reassembles what the ranks sent, and a reply of the wrong
// shape — rows missing, rows extra, no tensor at all, rows of the wrong width
// — is an error naming the rank instead of a panic in the coordinator.
func TestPrefillLogitsChecksEveryReply(t *testing.T) {
	const vocab = 3
	lens := []int{5, 1, 4}
	plan, err := sharding.NewBatchShard(lens, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Logit 0 of a row encodes its (sequence, position).
	mark := func(i, p int) float32 { return float32(100*i + p) }
	replies := func(all bool) []*wire.PrefillResult {
		res := make([]*wire.PrefillResult, plan.N)
		for r := range res {
			var rows []float32
			ls := plan.LocalSeqs(r)
			for slot, p := range plan.LocalPositions(r) {
				if p == sharding.Pad && !all {
					continue
				}
				if !all && p != lens[ls[slot]]-1 {
					continue
				}
				rows = append(rows, mark(ls[slot], p), 0, 0)
			}
			res[r] = &wire.PrefillResult{Logits: &tensor.Tensor{Tokens: len(rows) / vocab, Heads: 1, Dim: vocab, Data: rows}}
		}
		return res
	}
	for _, all := range []bool{true, false} {
		out, err := prefillLogits(plan, replies(all), all, vocab)
		if err != nil {
			t.Fatalf("all=%v: %v", all, err)
		}
		for i, T := range lens {
			first := 0
			if !all {
				first = T - 1
			}
			if len(out[i]) != T-first {
				t.Fatalf("all=%v: sequence %d has %d rows, want %d", all, i, len(out[i]), T-first)
			}
			for k, row := range out[i] {
				if row[0] != mark(i, first+k) {
					t.Fatalf("all=%v: sequence %d row %d holds position %v's logits", all, i, k, row[0])
				}
			}
		}
		for _, bad := range []struct {
			name string
			edit func(res []*wire.PrefillResult) int // returns the rank it broke
			msg  string
		}{
			{"short", func(res []*wire.PrefillResult) int {
				l := res[1].Logits
				l.Tokens, l.Data = l.Tokens-1, l.Data[:len(l.Data)-vocab]
				return 1
			}, "logits rows for"},
			{"long", func(res []*wire.PrefillResult) int {
				l := res[0].Logits
				l.Tokens, l.Data = l.Tokens+1, append(l.Data, 0, 0, 0)
				return 0
			}, "logits rows for"},
			{"nil", func(res []*wire.PrefillResult) int {
				res[0].Logits = nil
				return 0
			}, "returned 0 logits rows for"},
			{"narrow", func(res []*wire.PrefillResult) int {
				res[1].Logits.Dim = vocab - 1
				return 1
			}, "wide"},
		} {
			// Both ranks hold sampled rows in this plan (rank 0 two, rank 1
			// one), so each of these replies is malformed in either mode.
			res := replies(all)
			rank := bad.edit(res)
			_, err := prefillLogits(plan, res, all, vocab)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("rank %d returned", rank)) || !strings.Contains(err.Error(), bad.msg) {
				t.Fatalf("all=%v, %s reply from rank %d: got error %v", all, bad.name, rank, err)
			}
		}
	}
}
