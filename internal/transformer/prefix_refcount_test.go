package transformer

import (
	"fmt"
	"testing"

	"repro/internal/model"
)

// TestReleasePrefixWhileAdopted is the refcount regression the ISSUE pins:
// releasing a prefix id that a live session adopted must not free the
// refcounted KV spans out from under the session, and a double release must
// be a no-op — on the in-process engines AND through the distributed
// registry path (worker-side span registries driven by ReleasePrefixCmd).
func TestReleasePrefixWhileAdopted(t *testing.T) {
	cfg := Tiny(13)
	const n = 2
	build := func(t *testing.T, dist bool) *Cluster {
		w, err := NewWeights(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if dist {
			return startLoopbackCluster(t, cfg, n, 0)
		}
		c, err := NewCluster(w, n)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, mode := range []struct {
		name string
		dist bool
	}{{"in-process", false}, {"distributed", true}} {
		t.Run(mode.name, func(t *testing.T) {
			c := build(t, mode.dist)
			// Reference: the same history with the prefix handle kept alive,
			// so any premature free in the victim shows up as a logit diff.
			refW, err := NewWeights(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewCluster(refW, n)
			if err != nil {
				t.Fatal(err)
			}

			donor := make([]int, 32)
			for i := range donor {
				donor[i] = (i*7 + 3) % cfg.Model.VocabSize
			}
			run := func(c *Cluster, release bool) [][]float32 {
				if _, err := c.Prefill(1, donor, model.PassKV); err != nil {
					t.Fatal(err)
				}
				pre, err := c.DetachPrefix(1, 32)
				if err != nil {
					t.Fatal(err)
				}
				c.Drop(1)
				// Seed a live session from the prefix, then release the
				// handle while the session still shares its pages.
				if err := c.AdoptPrefix(2, pre); err != nil {
					t.Fatal(err)
				}
				if release {
					pre.Release()
					pre.Release() // double release must be a no-op
				}
				// The session keeps decoding against the adopted KV; if the
				// release freed shared pages the logits diverge (or the
				// decode faults).
				var out [][]float32
				tok := 5
				for step := 0; step < 6; step++ {
					l, err := c.Decode(2, tok)
					if err != nil {
						t.Fatalf("decode step %d after release: %v", step, err)
					}
					out = append(out, l)
					tok = Argmax(l)
				}
				if !release {
					pre.Release()
				}
				return out
			}
			got := run(c, true)
			want := run(ref, false)
			for i := range want {
				sameLogits(t, fmt.Sprintf("decode %d with released prefix", i), [][]float32{want[i]}, [][]float32{got[i]})
			}

			// With the handle released and the session dropped, every page
			// is freed: per-rank KV occupancy returns to zero (no leak, no
			// double free).
			c.Drop(2)
			for r, kv := range c.RankCacheTokens() {
				if kv != 0 {
					t.Errorf("rank %d still holds %d KV tokens after release+drop", r, kv)
				}
			}
		})
	}
}
