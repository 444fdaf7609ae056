package transformer

import (
	"fmt"

	"repro/internal/comm/wire"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/tensor"
)

// The logits oracles: entry points that return whole logits rows rather than
// sampled token ids. No served path calls them — the scheduler prefills
// through PrefillNext and decodes through DecodeNext — but the examples, the
// benchmark's stream verification and the bit-identity tests compare what
// the served path produces against them.

// Prefill runs a full or partial prefill of new tokens for a sequence and
// returns the logits of every new position, in order.
func (c *Cluster) Prefill(seq int, tokens []int, variant model.Variant) ([][]float32, error) {
	out, err := c.PrefillBatch([]int{seq}, [][]int{tokens}, variant)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// PrefillLast is Prefill for a caller that samples the next token from the
// last position only: the ranks run the last layer's attention, FFN and
// output head for that one row, and only the rank holding it returns logits. Every KV row lands exactly where Prefill puts it, and
// the returned row, freshly allocated, is bit-identical to the last row
// Prefill would have returned.
//
//cplint:allow testonly TestPrefillLastMatchesPrefill is the only bit-level check of the sampled-row prefill
func (c *Cluster) PrefillLast(seq int, tokens []int, variant model.Variant) ([]float32, error) {
	out, err := c.prefill([]int{seq}, [][]int{tokens}, variant, false)
	if err != nil {
		return nil, err
	}
	return out[0][0], nil
}

// PrefillBatch runs a fused variable-sequence-length prefill (Figure 1's
// scenario at the whole-model level): every sequence is load-balance sharded
// independently, the batch's Q/K/V fuse into one ring pass per layer, and
// per-sequence logits come back in order. Sequences may be new or have
// persistent KV from earlier turns.
func (c *Cluster) PrefillBatch(seqIDs []int, tokens [][]int, variant model.Variant) ([][][]float32, error) {
	return c.prefill(seqIDs, tokens, variant, true)
}

// prefill is PrefillBatch returning every new position's logits when all is
// set, else each sequence's last position's alone (one row per sequence).
func (c *Cluster) prefill(seqIDs []int, tokens [][]int, variant model.Variant, all bool) ([][][]float32, error) {
	reply := wire.ReplyLast
	if all {
		reply = wire.ReplyAll
	}
	plan, results, err := c.prefillCmd(seqIDs, tokens, variant, reply)
	if err != nil {
		return nil, err
	}
	return prefillLogits(plan, results, all, c.W.Cfg.Model.VocabSize)
}

// prefillLogits reassembles a prefill command's logits from the ranks'
// replies: out[i] holds every new position of sequence i when all is set,
// else its last position alone. Rank r must answer with exactly the rows the
// plan puts on it — LocalLen(r) slots, padding included, or the sampled rows
// it holds — vocab wide and in slot order; a reply with any other shape is
// an error naming the rank, never a panic. The rows are copied into one
// buffer the caller keeps: a rank's reply lives in its arena, which the next
// command reuses.
func prefillLogits(plan *sharding.BatchShard, results []*wire.PrefillResult, all bool, vocab int) ([][][]float32, error) {
	want := sampledRows(plan, nil)
	if all {
		for r := range want {
			want[r] = plan.LocalLen(r)
		}
	}
	locals := make([]*tensor.Tensor, plan.N)
	for r, res := range results {
		got, width := 0, vocab
		if res.Logits != nil {
			got, width = res.Logits.Tokens, res.Logits.Heads*res.Logits.Dim
		}
		if got != want[r] {
			return nil, fmt.Errorf("transformer: rank %d returned %d logits rows for %d", r, got, want[r])
		}
		if got > 0 && width != vocab {
			return nil, fmt.Errorf("transformer: rank %d returned logits rows %d wide for a vocab of %d", r, width, vocab)
		}
		locals[r] = res.Logits
	}
	out := make([][][]float32, len(plan.SeqLens))
	if all {
		fused := plan.Unshard(locals)
		for i, T := range plan.SeqLens {
			out[i] = make([][]float32, T)
			for t := range out[i] {
				out[i][t] = fused.Row2D(plan.SeqOffset(i) + t)
			}
		}
		return out, nil
	}
	flat := make([]float32, len(plan.SeqLens)*vocab)
	next := make([]int, plan.N) // a rank's sampled rows come in sequence order
	for i, T := range plan.SeqLens {
		r, _ := plan.Locate(i, T-1)
		row := flat[i*vocab : (i+1)*vocab]
		copy(row, locals[r].Row2D(next[r]))
		next[r]++
		out[i] = [][]float32{row}
	}
	return out, nil
}

// Decode generates the logits for one new token of a sequence using batched
// ring pass-Q decode on every layer. It is the batch-of-one special case of
// DecodeBatch.
func (c *Cluster) Decode(seq, token int) ([]float32, error) {
	out, err := c.DecodeBatch([]int{seq}, []int{token})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// DecodeBatch advances every listed sequence by one token in a single ring
// pass-Q sweep per layer (§3.6 batched decode at the whole-model level).
// Entry i feeds tokens[i] to seqs[i]; per-sequence logits come back in batch
// order. Token ownership rotates per sequence — sequence s's step-t token is
// owned by rank t mod N regardless of what else shares the batch — so the
// KV placement, and therefore the floating-point merge order, of every
// sequence is identical to a serial single-session execution. Non-owner
// ranks participate in every layer's ring attention while only owner ranks
// run embeddings, projections, FFN, and the output head for their tokens.
func (c *Cluster) DecodeBatch(seqs []int, tokens []int) ([][]float32, error) {
	results, err := c.decode(seqs, tokens, wire.ReplyLast)
	if err != nil {
		return nil, err
	}
	// A rank's Flat is its reply frame's, reused by its next decode step:
	// the rows are copied into the step's one buffer the caller may keep.
	vocab := c.W.Cfg.Model.VocabSize
	flat := make([]float32, len(seqs)*vocab)
	out := make([][]float32, len(seqs))
	for r, rows := range c.owners.rows {
		if len(results[r].Flat) != len(rows)*vocab {
			return nil, fmt.Errorf("transformer: rank %d returned %d logits for %d owned rows", r, len(results[r].Flat), len(rows))
		}
		for j, row := range rows {
			out[row] = flat[row*vocab : (row+1)*vocab]
			copy(out[row], results[r].Flat[j*vocab:])
		}
	}
	return out, nil
}

// PrefillFrom seeds a sequence from a cached prefix and prefills only the
// miss suffix, returning the suffix positions' logits — the warm-start entry
// point of the prefix-reuse subsystem. A nil prefix degrades to a cold
// Prefill of the suffix.
func (c *Cluster) PrefillFrom(seq int, pre *PrefixKV, suffix []int, variant model.Variant) ([][]float32, error) {
	if pre != nil && pre.Tokens() > 0 {
		if err := c.AdoptPrefix(seq, pre); err != nil {
			return nil, err
		}
	}
	return c.Prefill(seq, suffix, variant)
}

// Generate greedily extends a prompt: one distributed prefill, then
// `steps` distributed decode steps. Returns the generated token ids.
func (c *Cluster) Generate(seq int, prompt []int, steps int, variant model.Variant) ([]int, error) {
	logits, err := c.Prefill(seq, prompt, variant)
	if err != nil {
		return nil, err
	}
	next := Argmax(logits[len(logits)-1])
	out := make([]int, 0, steps)
	for i := 0; i < steps; i++ {
		out = append(out, next)
		if i == steps-1 {
			break
		}
		l, err := c.Decode(seq, next)
		if err != nil {
			return nil, err
		}
		next = Argmax(l)
	}
	return out, nil
}
