package main

import (
	"repro/internal/perf"
	"repro/internal/sharding"
	"repro/internal/transformer"
)

// predicted is what one counted round's measured phases must add to the
// engine's counters, worked out from the workload's shapes alone. The traced
// run compares these with the measured deltas; a mismatch is a failed check.
type predicted struct {
	Requests                  int
	PassKVChunks, PassQChunks int64
	Iterations, OccupancySum  int64
	Cached, Computed          int64
	// CommBytes and CommMsgs are the modeled ring traffic summed over ranks
	// and layers: per hop model.Config's KVBytes for a pass-KV block and
	// QBytes for a pass-Q block (the paper's Table 3 message sizes) plus 8
	// bytes of position/sequence metadata per row, the pass-Q All2All at
	// QBytes plus one LSE scalar per row and head (Appendix C), and the
	// pass-KV 8-byte length gather.
	CommBytes float64
	CommMsgs  int64
	Sweeps    int64 // ring sweeps: one per chunk or decode step, layer and rank
}

// predict walks the counted round the way the scheduler executes it: the
// client's requests one after another (or, for a Barrier workload, the
// deterministic ramp runBarrier sets up), prompts in budget-aligned chunks with Equation 1
// choosing the variant, the continuation's one-token chunk, then decode
// steps whose owner rank rotates per sequence.
func predict(e Env, w Workload, in RoundInputs) (predicted, error) {
	m := e.Model.Model
	n := e.Ranks
	p := predicted{}
	perLayer := func(bytes float64, msgs int64) {
		p.CommBytes += bytes * float64(m.Layers)
		p.CommMsgs += msgs * int64(m.Layers)
	}
	hops := float64(n * (n - 1))
	const meta = 8                                        // position and sequence id of a row
	kvRow := m.KVBytes(1, 0) + meta                       // circulating key+value row
	qRow := m.QBytes(1) + meta                            // circulating query row
	oRow := m.QBytes(1) + float64(m.NumHeads)*m.ElemBytes // returned partial row with its LSEs

	// rows[seq][rank] = KV rows the rank holds of the sequence.
	rows := map[int][]int{}
	held := func(seq int) []int {
		if rows[seq] == nil {
			rows[seq] = make([]int, n)
		}
		return rows[seq]
	}
	chunk := func(seq, T, pos int) error {
		plan, err := sharding.NewBatchShard([]int{T}, n)
		if err != nil {
			return err
		}
		have := held(seq)
		if perf.ChooseVariant(m, T, pos) == perf.PassKV {
			p.PassKVChunks++
			// Every rank's block is padded to the longest rank segment.
			longest := 0
			for r := 0; r < n; r++ {
				longest = max(longest, have[r]+realRows(plan, r))
			}
			perLayer(hops*(float64(longest)*kvRow+8), 2*int64(hops))
		} else {
			p.PassQChunks++
			var bytes float64
			for r := 0; r < n; r++ {
				// Rank r's query block makes n-1 hops; its n-1 remote
				// partials come back through the All2All.
				bytes += float64(n-1) * float64(plan.LocalLen(r)) * (qRow + oRow)
			}
			perLayer(bytes, 2*int64(hops))
		}
		for r := 0; r < n; r++ {
			have[r] += realRows(plan, r)
		}
		p.Computed += int64(T)
		p.Sweeps += int64(m.Layers * n)
		return nil
	}
	prompt := func(seq, from int) error {
		for pos := from; pos < w.Prompt; {
			T := min(e.TokenBudget-pos%e.TokenBudget, w.Prompt-pos)
			if err := chunk(seq, T, pos); err != nil {
				return err
			}
			pos += T
		}
		return nil
	}
	// decode runs one fused step over the listed sequences; steps[i] is how
	// many decode steps sequence i has completed.
	decode := func(seqs, steps []int) {
		owned := make([]int, n)
		for i, seq := range seqs {
			r := transformer.DecodeOwnerRank(seq, steps[i], n)
			owned[r]++
			held(seq)[r]++
		}
		block := 1
		for _, c := range owned {
			block = max(block, c)
		}
		perLayer(hops*float64(block)*(qRow+oRow), 2*int64(hops))
		p.Sweeps += int64(m.Layers * n)
	}

	if w.Barrier {
		// Prefill iterations, one session each.
		for c := range in.Clients {
			before := p.PassKVChunks + p.PassQChunks
			if err := prompt(in.Clients[c][0].Session, 0); err != nil {
				return p, err
			}
			chunks := p.PassKVChunks + p.PassQChunks - before
			p.Iterations += chunks
			p.OccupancySum += chunks
			p.Requests++
		}
		// The ramp: iteration k runs session k's one-token chunk fused with
		// a decode step of every session already past its chunk.
		done := make([]int, len(in.Clients)) // decode steps completed
		for next := 0; ; next++ {
			var seqs, steps []int
			for c := 0; c < min(next, len(in.Clients)); c++ {
				if done[c] < w.Out-1 {
					seqs = append(seqs, in.Clients[c][0].Session)
					steps = append(steps, done[c])
					done[c]++
				}
			}
			if next >= len(in.Clients) && len(seqs) == 0 {
				break
			}
			occupancy := int64(len(seqs))
			if len(seqs) > 0 {
				decode(seqs, steps)
			}
			if next < len(in.Clients) {
				if err := chunk(in.Clients[next][0].Session, 1, w.Prompt); err != nil {
					return p, err
				}
				occupancy++
			}
			p.Iterations++
			p.OccupancySum += occupancy
		}
		return p, nil
	}

	// Served from the tree: whole blocks of the shared corpus, which the
	// warm-up request donated.
	cached := e.blocks(w.Shared)
	if w.NoCache {
		cached = 0
	}
	for c := range in.Clients {
		for _, rq := range in.Clients[c] {
			p.Requests++
			if cached > 0 {
				// The adopted rows sit where a cold prefill put them.
				for pos := 0; pos < cached; pos += e.TokenBudget {
					plan, err := sharding.NewBatchShard([]int{e.TokenBudget}, n)
					if err != nil {
						return p, err
					}
					for r := 0; r < n; r++ {
						held(rq.Session)[r] += realRows(plan, r)
					}
				}
				p.Cached += int64(cached)
			}
			before := p.PassKVChunks + p.PassQChunks
			if err := prompt(rq.Session, cached); err != nil {
				return p, err
			}
			if err := chunk(rq.Session, 1, w.Prompt); err != nil {
				return p, err
			}
			chunks := p.PassKVChunks + p.PassQChunks - before
			for step := 0; step < w.Out-1; step++ {
				decode([]int{rq.Session}, []int{step})
			}
			p.Iterations += chunks + int64(w.Out-1)
			p.OccupancySum += chunks + int64(w.Out-1)
		}
	}
	return p, nil
}

// realRows counts the non-padding slots of a rank's shard.
func realRows(plan *sharding.BatchShard, rank int) int {
	n := 0
	for _, pos := range plan.LocalPositions(rank) {
		if pos != sharding.Pad {
			n++
		}
	}
	return n
}
