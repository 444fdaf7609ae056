package transformer

import (
	"math"
	"testing"
	"time"

	"repro/internal/model"
)

const tol = 2e-3 // logits tolerance: float32 through 2 layers + head

func maxDiff(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	if err := Tiny(1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Tiny(1)
	bad.Model.VocabSize = 0
	if bad.Validate() == nil {
		t.Fatal("zero vocab accepted")
	}
	bad2 := Tiny(1)
	bad2.RoPEBase = 1
	if bad2.Validate() == nil {
		t.Fatal("rope base 1 accepted")
	}
	bad3 := Tiny(1)
	bad3.NormEps = 0
	if bad3.Validate() == nil {
		t.Fatal("zero eps accepted")
	}
}

func TestWeightsDeterministic(t *testing.T) {
	a, err := NewWeights(Tiny(5))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewWeights(Tiny(5))
	c, _ := NewWeights(Tiny(6))
	la, _ := a.Forward([]int{1, 2, 3})
	lb, _ := b.Forward([]int{1, 2, 3})
	lc, _ := c.Forward([]int{1, 2, 3})
	if maxDiff(la[2], lb[2]) != 0 {
		t.Fatal("same seed gave different logits")
	}
	if maxDiff(la[2], lc[2]) == 0 {
		t.Fatal("different seeds gave identical logits")
	}
}

func TestForwardShapesAndCausality(t *testing.T) {
	w, err := NewWeights(Tiny(1))
	if err != nil {
		t.Fatal(err)
	}
	logits, err := w.Forward([]int{3, 1, 4, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(logits) != 5 || len(logits[0]) != w.Cfg.Model.VocabSize {
		t.Fatalf("logits shape %dx%d", len(logits), len(logits[0]))
	}
	// Causality: extending the sequence must not change earlier logits.
	longer, err := w.Forward([]int{3, 1, 4, 1, 5, 9, 2})
	if err != nil {
		t.Fatal(err)
	}
	for tIdx := 0; tIdx < 5; tIdx++ {
		if d := maxDiff(logits[tIdx], longer[tIdx]); d > 1e-6 {
			t.Fatalf("position %d logits changed by %v when appending tokens (causality broken)", tIdx, d)
		}
	}
}

func TestForwardRejectsBadTokens(t *testing.T) {
	w, _ := NewWeights(Tiny(1))
	if _, err := w.Forward(nil); err == nil {
		t.Fatal("empty sequence accepted")
	}
	if _, err := w.Forward([]int{1000}); err == nil {
		t.Fatal("out-of-vocab token accepted")
	}
}

func TestClusterPrefillMatchesReference(t *testing.T) {
	w, err := NewWeights(Tiny(2))
	if err != nil {
		t.Fatal(err)
	}
	tokens := []int{7, 3, 60, 12, 9, 33, 2, 41, 18, 5, 27}
	ref, err := w.Forward(tokens)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 3} {
		for _, v := range []model.Variant{model.PassKV, model.PassQ} {
			c, err := NewCluster(w, ranks)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Prefill(0, tokens, v)
			if err != nil {
				t.Fatalf("ranks=%d %v: %v", ranks, v, err)
			}
			for tIdx := range tokens {
				if d := maxDiff(ref[tIdx], got[tIdx]); d > tol {
					t.Fatalf("ranks=%d %v: position %d logits deviate by %v", ranks, v, tIdx, d)
				}
			}
		}
	}
}

func TestClusterMultiTurnPrefill(t *testing.T) {
	w, _ := NewWeights(Tiny(3))
	c, err := NewCluster(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	turn1 := []int{5, 9, 13, 21, 34, 2, 8}
	turn2 := []int{17, 4, 44}
	if _, err := c.Prefill(0, turn1, model.PassKV); err != nil {
		t.Fatal(err)
	}
	got, err := c.Prefill(0, turn2, model.PassQ)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([]int{}, turn1...), turn2...)
	ref, err := w.Forward(full)
	if err != nil {
		t.Fatal(err)
	}
	for i := range turn2 {
		if d := maxDiff(ref[len(turn1)+i], got[i]); d > tol {
			t.Fatalf("turn2 position %d deviates by %v", i, d)
		}
	}
	if c.SeqLen(0) != len(full) {
		t.Fatalf("SeqLen = %d, want %d", c.SeqLen(0), len(full))
	}
}

func TestClusterDecodeMatchesReference(t *testing.T) {
	w, _ := NewWeights(Tiny(4))
	c, err := NewCluster(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{11, 29, 3, 56, 8}
	if _, err := c.Prefill(0, prompt, model.PassKV); err != nil {
		t.Fatal(err)
	}
	seq := append([]int{}, prompt...)
	for step := 0; step < 4; step++ {
		next := (step*13 + 7) % w.Cfg.Model.VocabSize
		got, err := c.Decode(0, next)
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, next)
		ref, err := w.Forward(seq)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(ref[len(seq)-1], got); d > tol {
			t.Fatalf("decode step %d logits deviate by %v", step, d)
		}
	}
}

func TestClusterGenerateMatchesReference(t *testing.T) {
	// The end-to-end claim: greedy decoding over the distributed cluster
	// emits the exact same tokens as the single-device reference.
	w, _ := NewWeights(Tiny(6))
	prompt := []int{2, 47, 19, 5, 31, 8}
	const steps = 6
	refTokens, err := w.GenerateReference(prompt, steps)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 4} {
		c, err := NewCluster(w, ranks)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Generate(0, prompt, steps, model.PassKV)
		if err != nil {
			t.Fatal(err)
		}
		for i := range refTokens {
			if got[i] != refTokens[i] {
				t.Fatalf("ranks=%d: generated %v, reference %v", ranks, got, refTokens)
			}
		}
	}
}

func TestClusterDecodeRotatesOwnership(t *testing.T) {
	w, _ := NewWeights(Tiny(7))
	c, err := NewCluster(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prefill(0, []int{1, 2, 3, 4, 5, 6, 7, 8}, model.PassKV); err != nil {
		t.Fatal(err)
	}
	base := c.RankCacheTokens()
	for step := 0; step < 8; step++ {
		if _, err := c.Decode(0, step%10); err != nil {
			t.Fatal(err)
		}
	}
	min, max := 1<<30, 0
	for r, tok := range c.RankCacheTokens() {
		g := tok - base[r]
		if g < min {
			min = g
		}
		if g > max {
			max = g
		}
	}
	// Growth is per-layer: 8 steps * 2 layers over 4 ranks = 4 per rank.
	if max-min > w.Cfg.Model.Layers {
		t.Fatalf("decode KV growth imbalance %d across ranks", max-min)
	}
}

func TestClusterErrors(t *testing.T) {
	w, _ := NewWeights(Tiny(8))
	if _, err := NewCluster(w, 0); err == nil {
		t.Fatal("zero ranks accepted")
	}
	c, _ := NewCluster(w, 2)
	if _, err := c.Prefill(0, nil, model.PassKV); err == nil {
		t.Fatal("empty prefill accepted")
	}
	if _, err := c.Decode(0, 1); err == nil {
		t.Fatal("decode before prefill accepted")
	}
	if _, err := c.Prefill(0, []int{999}, model.PassKV); err == nil {
		t.Fatal("out-of-vocab prefill accepted")
	}
}

func TestRoPEGlobalPositionsUnderSharding(t *testing.T) {
	// With 3 ranks the load-balanced shard positions are non-contiguous; if
	// the cluster rotated by local index instead of global position, logits
	// would diverge badly. Compare against reference at high precision.
	w, _ := NewWeights(Tiny(9))
	tokens := []int{13, 7, 22, 40, 9, 3, 18, 31, 25, 6, 12, 59}
	ref, err := w.Forward(tokens)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewCluster(w, 3)
	got, err := c.Prefill(0, tokens, model.PassKV)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := range tokens {
		if d := maxDiff(ref[i], got[i]); d > worst {
			worst = d
		}
	}
	if worst > tol {
		t.Fatalf("sharded RoPE deviates by %v (global-position bug?)", worst)
	}
}

func TestPrefillBatchFusedSequences(t *testing.T) {
	// Two sequences fused into one ring pass per layer must each match their
	// independent reference forward.
	w, _ := NewWeights(Tiny(12))
	c, err := NewCluster(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	seqs := [][]int{
		{3, 14, 15, 9, 26, 5, 35},
		{27, 18, 28},
	}
	out, err := c.PrefillBatch([]int{0, 1}, seqs, model.PassKV)
	if err != nil {
		t.Fatal(err)
	}
	for i, toks := range seqs {
		ref, err := w.Forward(toks)
		if err != nil {
			t.Fatal(err)
		}
		for pos := range toks {
			if d := maxDiff(ref[pos], out[i][pos]); d > tol {
				t.Fatalf("sequence %d position %d deviates by %v", i, pos, d)
			}
		}
	}
	if c.SeqLen(0) != 7 || c.SeqLen(1) != 3 {
		t.Fatalf("lens = %d,%d", c.SeqLen(0), c.SeqLen(1))
	}
	// Mixed follow-up: one existing, one fresh sequence.
	out2, err := c.PrefillBatch([]int{1, 5}, [][]int{{7, 7}, {1, 2, 3, 4}}, model.PassQ)
	if err != nil {
		t.Fatal(err)
	}
	full1 := append(append([]int{}, seqs[1]...), 7, 7)
	ref1, err := w.Forward(full1)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < 2; pos++ {
		if d := maxDiff(ref1[3+pos], out2[0][pos]); d > tol {
			t.Fatalf("follow-up position %d deviates by %v", pos, d)
		}
	}
	ref5, err := w.Forward([]int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(ref5[3], out2[1][3]); d > tol {
		t.Fatalf("fresh fused sequence deviates by %v", d)
	}
}

func TestPrefillBatchValidation(t *testing.T) {
	w, _ := NewWeights(Tiny(13))
	c, _ := NewCluster(w, 2)
	if _, err := c.PrefillBatch(nil, nil, model.PassKV); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := c.PrefillBatch([]int{0, 0}, [][]int{{1}, {2}}, model.PassKV); err == nil {
		t.Fatal("duplicate sequence accepted")
	}
	if _, err := c.PrefillBatch([]int{0}, [][]int{{}}, model.PassKV); err == nil {
		t.Fatal("empty token list accepted")
	}
}

func TestCommBytesNonZeroOnlyForMultiRank(t *testing.T) {
	w, _ := NewWeights(Tiny(10))
	c1, _ := NewCluster(w, 1)
	if _, err := c1.Prefill(0, []int{1, 2, 3, 4}, model.PassKV); err != nil {
		t.Fatal(err)
	}
	if got := c1.CommStats().Bytes["sendrecv"]; got != 0 {
		t.Fatalf("single rank sent %v ring bytes", got)
	}
	c2, _ := NewCluster(w, 2)
	if _, err := c2.Prefill(0, []int{1, 2, 3, 4}, model.PassKV); err != nil {
		t.Fatal(err)
	}
	if got := c2.CommStats().Bytes["sendrecv"]; got <= 0 {
		t.Fatal("two ranks sent no ring bytes")
	}
}

func TestDecodeBatchBitIdenticalToSerial(t *testing.T) {
	// The continuous-batching contract: fusing sequences into one ring
	// pass-Q sweep must not change ANY bit of any sequence's logits versus
	// decoding it alone on a fresh cluster. Per-sequence owner rotation
	// pins each token's KV to the same rank either way, so the
	// floating-point merge order is identical.
	w, _ := NewWeights(Tiny(21))
	batch, err := NewCluster(w, 2) // 3 sequences on 2 ranks forces owner collisions
	if err != nil {
		t.Fatal(err)
	}
	prompts := [][]int{
		{5, 9, 13, 21, 34},
		{2, 47, 19},
		{7, 3, 60, 12, 9, 33},
	}
	serial := make([]*Cluster, len(prompts))
	feed := make([]int, len(prompts))
	for i, p := range prompts {
		if _, err := batch.Prefill(i, p, model.PassKV); err != nil {
			t.Fatal(err)
		}
		serial[i], _ = NewCluster(w, 2)
		if _, err := serial[i].Prefill(i, p, model.PassKV); err != nil {
			t.Fatal(err)
		}
		feed[i] = (i*11 + 3) % w.Cfg.Model.VocabSize
	}
	seqs := []int{0, 1, 2}
	for step := 0; step < 5; step++ {
		got, err := batch.DecodeBatch(seqs, feed)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for i := range seqs {
			want, err := serial[i].Decode(i, feed[i])
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if got[i][j] != want[j] {
					t.Fatalf("step %d sequence %d logit %d: batched %v != serial %v (not bit-identical)",
						step, i, j, got[i][j], want[j])
				}
			}
			feed[i] = Argmax(want)
		}
	}
}

func TestDecodeBatchSubsetAndRejoin(t *testing.T) {
	// Sequences may drop out of the batch (finished/stalled sessions) and
	// rejoin later; per-sequence rotation keeps each one bit-identical to
	// its own serial schedule throughout.
	w, _ := NewWeights(Tiny(22))
	batch, _ := NewCluster(w, 3)
	ref0, _ := NewCluster(w, 3)
	ref1, _ := NewCluster(w, 3)
	for _, c := range []*Cluster{batch, ref0, ref1} {
		if _, err := c.Prefill(0, []int{1, 2, 3, 4}, model.PassKV); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := batch.Prefill(1, []int{9, 8, 7}, model.PassKV); err != nil {
		t.Fatal(err)
	}
	if _, err := ref1.Prefill(1, []int{9, 8, 7}, model.PassKV); err != nil {
		t.Fatal(err)
	}
	// Step both together, then only seq 1, then both again.
	schedules := [][]int{{0, 1}, {1}, {0, 1}}
	steps := map[int]int{}
	for _, seqs := range schedules {
		toks := make([]int, len(seqs))
		for i, s := range seqs {
			toks[i] = (s*7 + steps[s]*13 + 2) % w.Cfg.Model.VocabSize
		}
		got, err := batch.DecodeBatch(seqs, toks)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range seqs {
			ref := ref0
			if s == 1 {
				ref = ref1
			}
			want, err := ref.Decode(s, toks[i])
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if got[i][j] != want[j] {
					t.Fatalf("seq %d step %d not bit-identical to serial", s, steps[s])
				}
			}
			steps[s]++
		}
	}
}

func TestDecodeBatchValidation(t *testing.T) {
	w, _ := NewWeights(Tiny(23))
	c, _ := NewCluster(w, 2)
	if _, err := c.DecodeBatch(nil, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := c.DecodeBatch([]int{0}, []int{1, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := c.DecodeBatch([]int{0}, []int{1}); err == nil {
		t.Fatal("unknown sequence accepted")
	}
	if _, err := c.Prefill(0, []int{1, 2}, model.PassKV); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeBatch([]int{0, 0}, []int{1, 1}); err == nil {
		t.Fatal("duplicate sequence accepted")
	}
	if _, err := c.DecodeBatch([]int{0}, []int{9999}); err == nil {
		t.Fatal("out-of-vocab token accepted")
	}
}

func TestClusterDrop(t *testing.T) {
	w, _ := NewWeights(Tiny(24))
	c, _ := NewCluster(w, 2)
	if _, err := c.Prefill(5, []int{1, 2, 3}, model.PassKV); err != nil {
		t.Fatal(err)
	}
	if c.SeqLen(5) != 3 {
		t.Fatalf("len = %d", c.SeqLen(5))
	}
	c.Drop(5)
	if c.SeqLen(5) != 0 {
		t.Fatal("drop kept sequence length")
	}
	for _, n := range c.RankCacheTokens() {
		if n != 0 {
			t.Fatalf("drop left %d cached tokens", n)
		}
	}
	if _, err := c.Decode(5, 1); err == nil {
		t.Fatal("decode of dropped sequence accepted")
	}
}

func TestNegativeSequenceIDsRejectedUpfront(t *testing.T) {
	// The ring layer uses negative ids as padding markers; a negative id
	// must be rejected before any rank enters the ring, where a mid-pass
	// error would stall peers until the receive timeout.
	w, _ := NewWeights(Tiny(25))
	c, _ := NewCluster(w, 2)
	start := time.Now()
	if _, err := c.Prefill(-1, []int{1, 2}, model.PassKV); err == nil {
		t.Fatal("negative prefill sequence id accepted")
	}
	if _, err := c.Prefill(0, []int{1, 2}, model.PassKV); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeBatch([]int{-1}, []int{1}); err == nil {
		t.Fatal("negative decode sequence id accepted")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("rejection took %v — error surfaced mid-ring, not upfront", waited)
	}
}

func TestCongruentIDsSpreadOwners(t *testing.T) {
	// Session ids congruent mod N must not share one decode owner forever;
	// the hashed rotation offset spreads KV growth across ranks.
	w, _ := NewWeights(Tiny(30))
	c, _ := NewCluster(w, 4)
	ids := []int{100, 104, 108, 112}
	toks := make([]int, len(ids))
	for _, id := range ids {
		if _, err := c.Prefill(id, []int{1, 2, 3}, model.PassKV); err != nil {
			t.Fatal(err)
		}
	}
	base := c.RankCacheTokens()
	for step := 0; step < 8; step++ {
		if _, err := c.DecodeBatch(ids, toks); err != nil {
			t.Fatal(err)
		}
	}
	grown := 0
	for r, n := range c.RankCacheTokens() {
		if n > base[r] {
			grown++
		}
	}
	if grown < 2 {
		t.Fatalf("congruent ids still pile onto %d rank(s)", grown)
	}
}
