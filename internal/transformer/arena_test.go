package transformer

import (
	"fmt"
	"testing"

	"repro/internal/model"
)

// arenaPrompt is session s's deterministic prompt: lengths differ so the
// ranks' shards, and with them the decode owners' cache sizes, do too.
func arenaPrompt(s, vocab int) []int {
	p := make([]int, 5+s%4)
	for i := range p {
		p[i] = (s*17 + i*5 + 3) % vocab
	}
	return p
}

// The rank engine's decode arena must be invisible: while the fused batch
// walks from 1 to 9 sessions and back — sessions joining and leaving between
// steps, so the circulating block is recut again and again, with a prefill
// chunk landing on a resident session mid-run — every step's logits equal,
// at exact float equality, the same session decoding alone on a cluster of
// its own. N = 2, 3 and 4 put one, two and three forwarding peers between a
// block's owner and its last reader. Under -race (CI runs this at CP_WORKERS
// 1 and 8) a rank rewriting a query block or a partial a peer still reads is
// a reported race, not a wrong bit that happens not to show.
func TestDecodeArenaWalkingBatchMatchesSerial(t *testing.T) {
	const sessions = 9
	for _, n := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			w, err := NewWeights(Tiny(24))
			if err != nil {
				t.Fatal(err)
			}
			vocab := w.Cfg.Model.VocabSize
			newCluster := func() *Cluster {
				c, err := NewCluster(w, n)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				return c
			}
			fused := newCluster()
			serial := make([]*Cluster, sessions)
			feed := make([]int, sessions)
			for s := range serial {
				serial[s] = newCluster()
				for _, c := range []*Cluster{fused, serial[s]} {
					if _, err := c.Prefill(s+2, arenaPrompt(s, vocab), model.PassKV); err != nil {
						t.Fatal(err)
					}
				}
				feed[s] = (s*11 + 3) % vocab
			}
			// Batch sizes 1..9 then 8..1; the window of member sessions
			// slides by two each step, so most steps both admit and retire.
			var sizes []int
			for b := 1; b <= sessions; b++ {
				sizes = append(sizes, b)
			}
			for b := sessions - 1; b >= 1; b-- {
				sizes = append(sizes, b)
			}
			for step, b := range sizes {
				if step == 6 {
					// A second turn for session 0, between two decode steps.
					chunk := []int{9, 4, 33, 2, 18}
					got, err := fused.Prefill(2, chunk, model.PassQ)
					if err != nil {
						t.Fatal(err)
					}
					want, err := serial[0].Prefill(2, chunk, model.PassQ)
					if err != nil {
						t.Fatal(err)
					}
					sameLogits(t, "mid-run prefill chunk", got, want)
				}
				members := make([]int, b)
				seqs, toks := make([]int, b), make([]int, b)
				for i := range members {
					members[i] = (2*step + i) % sessions
					seqs[i], toks[i] = members[i]+2, feed[members[i]]
				}
				got, err := fused.DecodeBatch(seqs, toks)
				if err != nil {
					t.Fatalf("step %d (B=%d): %v", step, b, err)
				}
				for i, s := range members {
					want, err := serial[s].Decode(s+2, toks[i])
					if err != nil {
						t.Fatal(err)
					}
					requireExact(t, got[i], want, fmt.Sprintf("step %d (B=%d) session %d", step, b, s))
					feed[s] = Argmax(want)
				}
			}
		})
	}
}

// A decode step's logits are the caller's to keep: the ranks' reply frames
// and the logits inside them are reused by the next decode command, so
// Cluster.DecodeBatch must hand out copies. What step t returned is unchanged
// after step t+1 and after an interleaved prefill chunk — in-process, where a
// reply crosses by pointer, and over two RunWorker ranks on loopback sockets.
func TestDecodeLogitsSurviveLaterCommands(t *testing.T) {
	cfg := Tiny(31)
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inProcess, err := NewCluster(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer inProcess.Close()
	for name, c := range map[string]*Cluster{
		"in-process": inProcess,
		"loopback":   startLoopbackCluster(t, cfg, 2, 0),
	} {
		t.Run(name, func(t *testing.T) {
			seqs := []int{2, 3, 4}
			for i, seq := range seqs {
				if _, err := c.Prefill(seq, arenaPrompt(i, cfg.Model.VocabSize), model.PassKV); err != nil {
					t.Fatal(err)
				}
			}
			toks := []int{5, 6, 7}
			kept, err := c.DecodeBatch(seqs, toks)
			if err != nil {
				t.Fatal(err)
			}
			snapshot := make([][]float32, len(kept))
			for i := range kept {
				snapshot[i] = append([]float32(nil), kept[i]...)
				toks[i] = Argmax(kept[i])
			}
			if _, err := c.DecodeBatch(seqs, toks); err != nil {
				t.Fatal(err)
			}
			sameLogits(t, "step t's logits after step t+1", kept, snapshot)
			if _, err := c.Prefill(2, []int{8, 1, 40}, model.PassQ); err != nil {
				t.Fatal(err)
			}
			if _, err := c.DecodeBatch(seqs[1:], toks[1:]); err != nil {
				t.Fatal(err)
			}
			sameLogits(t, "step t's logits after a prefill chunk and another step", kept, snapshot)
		})
	}
}

// The decode command allocates KV growth and next to nothing else: a warm
// fused step of eight sessions on the mailbox plane with no recorder stays
// within 16 objects per rank (it was about 314 before the arena). What is
// left is the cache's pages and the mirrors' doubling, amortised, plus the
// per-command goroutines of World.Run and the step's one logits buffer.
func TestDecodeStepAllocationBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	const ranks, batch, budget = 2, 8, 16
	w, err := NewWeights(Tiny(5))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(w, ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seqs, toks := make([]int, batch), make([]int, batch)
	for s := range seqs {
		seqs[s] = s + 2
		if _, err := c.Prefill(seqs[s], arenaPrompt(s, w.Cfg.Model.VocabSize), model.PassKV); err != nil {
			t.Fatal(err)
		}
	}
	step := func() {
		out, err := c.DecodeBatch(seqs, toks)
		if err != nil {
			t.Fatal(err)
		}
		for s := range toks {
			toks[s] = Argmax(out[s])
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	perStep := testing.AllocsPerRun(256, step)
	if perRank := perStep / ranks; perRank > budget {
		t.Fatalf("a warm B=%d decode step allocates %.1f objects per rank (%.1f per step), budget %d", batch, perRank, perStep, budget)
	}
}
