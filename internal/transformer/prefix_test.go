package transformer

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/model"
)

// chunkedPrefill runs a canonical chunked prefill — absolute budget-aligned
// chunks from the sequence's current position — and returns the logits of
// every prefilled position in order.
func chunkedPrefill(t *testing.T, c *Cluster, seq int, tokens []int, budget int, v model.Variant) [][]float32 {
	t.Helper()
	var out [][]float32
	for at := 0; at < len(tokens); {
		pos := c.SeqLen(seq)
		n := budget - pos%budget
		if n > len(tokens)-at {
			n = len(tokens) - at
		}
		logits, err := c.Prefill(seq, tokens[at:at+n], v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, logits...)
		at += n
	}
	return out
}

func requireExact(t *testing.T, got, want []float32, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vs %d logits", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: logit %d differs: %v != %v (bit-identity violated)", what, i, got[i], want[i])
		}
	}
}

// TestPrefixReuseBitIdentical is the subsystem's acceptance check: a prefill
// seeded from a detached prefix — across sessions, after the donor decoded
// and was dropped — produces logits and decode streams exactly equal (float
// equality, not tolerance) to a cold canonical prefill of the full prompt.
// Covers both static ring variants and model.Auto, whose per-chunk Eq. 1
// choice is a pure function of absolute position and therefore replays
// identically warm and cold.
func TestPrefixReuseBitIdentical(t *testing.T) {
	const budget = 8
	prompt := make([]int, 28)
	for i := range prompt {
		prompt[i] = (i*13 + 7) % 64
	}
	for _, ranks := range []int{2, 3} {
		for _, v := range []model.Variant{model.PassKV, model.PassQ, model.Auto} {
			t.Run(fmt.Sprintf("ranks=%d/%v", ranks, v), func(t *testing.T) {
				w, err := NewWeights(Tiny(123))
				if err != nil {
					t.Fatal(err)
				}
				warm, err := NewCluster(w, ranks)
				if err != nil {
					t.Fatal(err)
				}
				// Donor: canonical prefill, then decode a few steps so the
				// detach happens against post-decode state.
				donorLogits := chunkedPrefill(t, warm, 1, prompt, budget, v)
				tok := Argmax(donorLogits[len(donorLogits)-1])
				for i := 0; i < 3; i++ {
					l, err := warm.Decode(1, tok)
					if err != nil {
						t.Fatal(err)
					}
					tok = Argmax(l)
				}
				const hit = 24 // 3 full budget-aligned blocks of the 28-token prompt
				pre, err := warm.DetachPrefix(1, hit)
				if err != nil {
					t.Fatal(err)
				}
				warm.Drop(1)

				// Warm start on a different session id: adopt + miss suffix.
				warmLogits, err := warm.PrefillFrom(2, pre, prompt[hit:], v)
				if err != nil {
					t.Fatal(err)
				}
				if warm.SeqLen(2) != len(prompt) {
					t.Fatalf("warm SeqLen = %d, want %d", warm.SeqLen(2), len(prompt))
				}

				// Cold reference: same session id, fresh cluster, full
				// canonical prefill.
				cold, err := NewCluster(w, ranks)
				if err != nil {
					t.Fatal(err)
				}
				coldLogits := chunkedPrefill(t, cold, 2, prompt, budget, v)

				if len(warmLogits) != len(prompt)-hit {
					t.Fatalf("warm suffix logits = %d, want %d", len(warmLogits), len(prompt)-hit)
				}
				for i, wl := range warmLogits {
					requireExact(t, wl, coldLogits[hit+i], fmt.Sprintf("suffix position %d", hit+i))
				}

				// Decode streams must stay bit-identical step by step.
				next := Argmax(warmLogits[len(warmLogits)-1])
				for step := 0; step < 6; step++ {
					wl, err := warm.Decode(2, next)
					if err != nil {
						t.Fatal(err)
					}
					cl, err := cold.Decode(2, next)
					if err != nil {
						t.Fatal(err)
					}
					requireExact(t, wl, cl, fmt.Sprintf("decode step %d", step))
					next = Argmax(wl)
				}
				pre.Release()
			})
		}
	}
}

// TestPrefixReuseSharedAcrossSessions: one detached prefix seeds several
// sibling sessions at once; all coexist and decode independently with the
// donor gone.
func TestPrefixReuseSharedAcrossSessions(t *testing.T) {
	const budget = 4
	prompt := []int{3, 9, 27, 17, 51, 25, 11, 33}
	w, err := NewWeights(Tiny(9))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	chunkedPrefill(t, c, 1, prompt, budget, model.PassKV)
	pre, err := c.DetachPrefix(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	c.Drop(1)
	want := make(map[int][]float32)
	for _, seq := range []int{10, 11, 12} {
		logits, err := c.PrefillFrom(seq, pre, []int{60, 61}, model.PassKV)
		if err != nil {
			t.Fatal(err)
		}
		want[seq] = logits[len(logits)-1]
	}
	// Identical suffixes at identical positions: identical logits.
	requireExact(t, want[11], want[10], "sibling 11")
	requireExact(t, want[12], want[10], "sibling 12")
	// Each sibling decodes independently (different owner rotations are
	// fine — each matches its own serial reference by session id).
	for _, seq := range []int{10, 11, 12} {
		if _, err := c.Decode(seq, 5); err != nil {
			t.Fatalf("sibling %d decode: %v", seq, err)
		}
	}
	pre.Release()
}

func TestDetachAdoptValidation(t *testing.T) {
	w, err := NewWeights(Tiny(2))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DetachPrefix(1, 4); err == nil {
		t.Fatal("detach of unknown sequence accepted")
	}
	if _, err := c.Prefill(1, []int{1, 2, 3, 4}, model.PassKV); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DetachPrefix(1, 5); err == nil {
		t.Fatal("detach beyond sequence length accepted")
	}
	if _, err := c.DetachPrefix(1, 0); err == nil {
		t.Fatal("zero-length detach accepted")
	}
	pre, err := c.DetachPrefix(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AdoptPrefix(1, pre); err == nil {
		t.Fatal("adoption onto a resident sequence accepted")
	}
	if err := c.AdoptPrefix(-1, pre); err == nil {
		t.Fatal("negative sequence id accepted")
	}
	pre.Release()
	if err := c.AdoptPrefix(2, pre); err == nil {
		t.Fatal("released prefix adopted")
	}
}

func TestPrefillCapacityErrorBeforeMutation(t *testing.T) {
	w, err := NewWeights(Tiny(3))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(w, 2, WithKVCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	big := make([]int, 12) // 6 rows per rank per layer > 4
	var ce *CapacityError
	_, err = c.Prefill(1, big, model.PassKV)
	if !errors.As(err, &ce) || len(ce.Seqs) != 1 || ce.Seqs[0] != 1 {
		t.Fatalf("expected CapacityError for seq 1, got %v", err)
	}
	// The precheck fired before any ring pass: nothing is resident.
	if c.SeqLen(1) != 0 {
		t.Fatalf("failed prefill left SeqLen %d", c.SeqLen(1))
	}
	for r, n := range telemetry(t, c).RankKV {
		if n != 0 {
			t.Fatalf("rank %d holds %d tokens after rejected prefill", r, n)
		}
	}
	// A prompt that fits still works.
	if _, err := c.Prefill(1, big[:8], model.PassKV); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeCapacityNamesOffenderOnly: when two sequences' decode tokens
// land on the same owner rank with room for only one, the CapacityError
// names exactly the overflowing sequence — before any cache mutation — so
// the scheduler can shed it and rerun the rest.
func TestDecodeCapacityNamesOffenderOnly(t *testing.T) {
	// Find two small ids whose step-0 decode owner collides on 2 ranks.
	a, b := -1, -1
search:
	for i := 0; i < 16 && a < 0; i++ {
		for j := i + 1; j < 16; j++ {
			if DecodeOwnerRank(i, 0, 2) == DecodeOwnerRank(j, 0, 2) {
				a, b = i, j
				break search
			}
		}
	}
	if a < 0 {
		t.Fatal("no colliding owner pair found")
	}
	w, err := NewWeights(Tiny(4))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(w, 2, WithKVCapacity(5))
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{1, 2, 3, 4} // 2 rows per rank per layer
	for _, seq := range []int{a, b} {
		if _, err := c.Prefill(seq, prompt, model.PassKV); err != nil {
			t.Fatal(err)
		}
	}
	// Owner rank sits at 4/5 per layer; two decode appends cannot fit.
	var ce *CapacityError
	_, err = c.DecodeBatch([]int{a, b}, []int{1, 1})
	if !errors.As(err, &ce) {
		t.Fatalf("expected CapacityError, got %v", err)
	}
	if len(ce.Seqs) != 1 || ce.Seqs[0] != b {
		t.Fatalf("offenders = %v, want [%d] (batch-order survivor keeps its slot)", ce.Seqs, b)
	}
	// Nothing was appended; shedding the offender lets the rest decode.
	if _, err := c.DecodeBatch([]int{a}, []int{1}); err != nil {
		t.Fatalf("survivor decode failed: %v", err)
	}
}

// TestAutoVariantResolution pins the cluster-level Eq. 1 resolution: Tiny's
// threshold is 2·NKV/NH = 1, so only a cold chunk (P = 0) selects pass-KV.
func TestAutoVariantResolution(t *testing.T) {
	cfg := Tiny(1)
	if got := model.ChooseVariant(cfg.Model, 8, 0); got != model.PassKV {
		t.Fatalf("cold chunk chose %v, want pass-KV", got)
	}
	if got := model.ChooseVariant(cfg.Model, 8, 8); got != model.PassQ {
		t.Fatalf("warm chunk chose %v, want pass-Q", got)
	}
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Auto must execute end to end through prefill and generate.
	if _, err := c.Prefill(1, []int{1, 2, 3, 4}, model.Auto); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prefill(1, []int{5, 6, 7, 8}, model.Auto); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode(1, 3); err != nil {
		t.Fatal(err)
	}
}
