package transformer

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/testsupport"
	"repro/internal/trace"
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

// arenaStep is one command of the prefill arena script: a prefill of one
// chunk per listed session (fused when there are several), a decode step
// feeding each listed session toks[i][0], or — adoptFrom set — detaching the
// first adoptUpTo tokens of session adoptFrom and adopting them into
// seqs[0].
type arenaStep struct {
	seqs      []int
	toks      [][]int
	v         model.Variant
	decode    bool
	adoptFrom int
	adoptUpTo int
}

// arenaChunk is a deterministic chunk of n tokens.
func arenaChunk(n, salt, vocab int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = (i*7 + salt*31 + i/5) % vocab
	}
	return c
}

// arenaSteps is the script: chunk lengths that shrink and grow back (512, 7,
// 300, 1, 512), pass-KV and pass-Q alternating within a session, a fused
// three-sequence batch whose block is forwarded N−1 hops, decode steps
// between chunks, and a warm chunk on a prefix adopted from session 3.
func arenaSteps(vocab int) []arenaStep {
	c := func(n, salt int) []int { return arenaChunk(n, salt, vocab) }
	return []arenaStep{
		{seqs: []int{2}, toks: [][]int{c(512, 1)}, v: model.PassKV},
		{seqs: []int{2}, toks: [][]int{c(7, 2)}, v: model.PassQ},
		{seqs: []int{3}, toks: [][]int{c(300, 3)}, v: model.PassKV},
		{seqs: []int{2, 3, 4}, toks: [][]int{c(1, 4), c(9, 5), c(40, 6)}, v: model.PassKV},
		{seqs: []int{2, 3, 4}, toks: [][]int{{5}, {6}, {7}}, decode: true},
		{seqs: []int{4}, toks: [][]int{c(33, 7)}, v: model.PassQ},
		{seqs: []int{5}, adoptFrom: 3, adoptUpTo: 300},
		{seqs: []int{5}, toks: [][]int{c(20, 8)}, v: model.PassQ},
		{seqs: []int{2}, toks: [][]int{c(512, 9)}, v: model.PassKV},
		{seqs: []int{2, 5}, toks: [][]int{{8}, {9}}, decode: true},
		{seqs: []int{3, 4}, toks: [][]int{c(2, 10), c(64, 11)}, v: model.PassQ},
	}
}

// runArenaScript drives steps against c, calling before ahead of every
// command, and returns the logits rows each session was handed, in order.
// After every command it checks that every row returned so far is unchanged:
// what a prefill or decode hands its caller must survive later commands,
// whatever the ranks reuse.
func runArenaScript(t *testing.T, c *Cluster, steps []arenaStep, before func()) map[int][][]float32 {
	t.Helper()
	got := map[int][][]float32{}
	var kept, snap [][]float32
	keep := func(seq int, rows ...[]float32) {
		for _, r := range rows {
			got[seq] = append(got[seq], r)
			kept = append(kept, r)
			snap = append(snap, slices.Clone(r))
		}
	}
	for i, st := range steps {
		before()
		switch {
		case st.adoptFrom != 0:
			pre, err := c.DetachPrefix(st.adoptFrom, st.adoptUpTo)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.AdoptPrefix(st.seqs[0], pre); err != nil {
				t.Fatal(err)
			}
			pre.Release()
		case st.decode:
			toks := make([]int, len(st.toks))
			for j := range toks {
				toks[j] = st.toks[j][0]
			}
			out, err := c.DecodeBatch(st.seqs, toks)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			for j, seq := range st.seqs {
				keep(seq, out[j])
			}
		default:
			out, err := c.PrefillBatch(st.seqs, st.toks, st.v)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			for j, seq := range st.seqs {
				keep(seq, out[j]...)
			}
		}
		sameLogits(t, fmt.Sprintf("rows returned before step %d's command completed", i+1), kept, snap)
	}
	return got
}

// replayAlone is session seq's share of steps on a cluster of its own, one
// single-session command per step it takes part in. An adopted prefix is
// prefilled cold instead, as its donor's first chunk was, and its logits are
// not returned: the warm run never sees them.
func replayAlone(t *testing.T, c *Cluster, steps []arenaStep, seq int) [][]float32 {
	t.Helper()
	var got [][]float32
	for i, st := range steps {
		j := slices.Index(st.seqs, seq)
		if j < 0 {
			continue
		}
		switch {
		case st.adoptFrom != 0:
			donor := steps[slices.IndexFunc(steps, func(s arenaStep) bool { return slices.Contains(s.seqs, st.adoptFrom) })]
			first := donor.toks[slices.Index(donor.seqs, st.adoptFrom)]
			if len(first) != st.adoptUpTo {
				t.Fatalf("step %d adopts %d tokens, but the donor's first chunk has %d", i, st.adoptUpTo, len(first))
			}
			if _, err := c.Prefill(seq, first, donor.v); err != nil {
				t.Fatal(err)
			}
		case st.decode:
			out, err := c.Decode(seq, st.toks[j][0])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, out)
		default:
			out, err := c.Prefill(seq, st.toks[j], st.v)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, out...)
		}
	}
	return got
}

// The rank engines' prefill arenas must be invisible. One long-lived cluster
// runs the whole script — its arenas, BlockCaches and kernel free lists see
// every chunk shape, both variants, the fused block and the adopted prefix —
// and every row it returns equals, at exact float equality, both the same
// script on a cluster whose arenas are emptied before every command (what
// ring.PrefillInput.Scratch == nil allocates per call) and each session
// replayed alone on a fresh cluster. N = 2, 3 and 4 put one, two and three
// forwarding peers between a pass-KV block's owner and its last reader; at
// N = 2 the script also runs over two RunWorker ranks on loopback sockets,
// where the logits cross the wire codec. Under -race (CI runs this at
// CP_WORKERS 1 and 8) a rank rewriting a buffer a peer still reads is a
// reported race, not a wrong bit that happens not to show.
func TestPrefillArenaMatchesPerCallAndFreshClusters(t *testing.T) {
	cfg := Tiny(27)
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := arenaSteps(cfg.Model.VocabSize)
	newCluster := func(n int) *Cluster {
		c, err := NewCluster(w, n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	for _, n := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			arena := runArenaScript(t, newCluster(n), steps, func() {})
			perCall := newCluster(n)
			emptyArenas := func() {
				for _, e := range perCall.plane.(*memPlane).engines {
					e.pre = prefillScratch{}
				}
			}
			want := runArenaScript(t, perCall, steps, emptyArenas)
			if n == 2 {
				remote := runArenaScript(t, startLoopbackCluster(t, cfg, n, 0), steps, func() {})
				for seq, rows := range arena {
					sameLogits(t, fmt.Sprintf("session %d over two RunWorker ranks", seq), remote[seq], rows)
				}
			}
			for seq, rows := range arena {
				sameLogits(t, fmt.Sprintf("session %d against per-call allocation", seq), rows, want[seq])
				alone := replayAlone(t, newCluster(n), steps, seq)
				sameLogits(t, fmt.Sprintf("session %d against a fresh cluster of its own", seq), rows, alone)
			}
		})
	}
}

// A warm prefill command allocates what it keeps and next to nothing else: a
// 512-token bench-gqa8 chunk into a fresh sequence on two ranks over the
// mailbox plane, with no recorder, the sequence dropped after it. What it
// keeps is the caller's logits (2 KiB a token) and the KV, whose pages come
// off the caches' free stacks, where the chunk before it left them.
// Measured at 2.03–2.08 KiB a token and 34–35 objects at GOMAXPROCS 1, 2
// and 4 with CP_WORKERS 1 and 8, and 38 objects under -race (2.64–2.67 KiB
// and 192 objects when the budgets were set, 3.18 KiB and 577 with the
// per-sequence KV mirror and six objects a page, 14.09 KiB and 1056 before
// the prefill arena). The object budget is the -race reading plus a
// quarter.
func TestPrefillAllocationBudget(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	const ranks, chunk, kibPerTok, objsPerChunk = 2, 512, 3.15, 48
	w, err := NewWeights(benchGQA8())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(w, ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	toks := arenaChunk(chunk, 1, w.Cfg.Model.VocabSize)
	op := func() {
		if _, err := c.Prefill(2, toks, model.PassKV); err != nil {
			t.Fatal(err)
		}
		c.Drop(2)
	}
	for i := 0; i < 4; i++ {
		op()
	}
	const runs = 16
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	kib := float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / (runs * chunk)
	objs := testing.AllocsPerRun(runs, op)
	t.Logf("a warm %d-token chunk allocates %.2f KiB a token and %.0f objects", chunk, kib, objs)
	if kib > kibPerTok {
		t.Errorf("a warm %d-token chunk allocates %.2f KiB a token, budget %.2f", chunk, kib, kibPerTok)
	}
	if objs > objsPerChunk {
		t.Errorf("a warm %d-token chunk allocates %.0f objects, budget %d", chunk, objs, objsPerChunk)
	}
}

// A warm fused decode step allocates no object besides the KV pages its
// appends open, on either plane and with tracing on or off. Eight bench-gqa8
// sessions prefill 512 tokens each (256 rows a rank: every tail page full)
// and then decode in lockstep on two ranks, where a sequence's owner
// alternates between the ranks: each rank appends a sequence's row every
// other step, so the pages open on steps 0 and 1 of every 32, and steps 2 to
// 31 open none. After a warm-up of two such cycles, the page-free windows of
// the next four cycles, 30 steps each, are counted — in process without a
// recorder, in process with one, and over two loopback RunWorker ranks
// (whose recorders stage every sweep's span) — and the best of them must
// allocate nothing at all, save a new block of a recorder's span or argument
// buffer. A step that allocated would show in every window; what
// shows in some is the runtime's own: a goroutine that parks on a mailbox
// takes its wait records from a per-processor cache, and when the rank
// goroutines drift between processors that cache refills. The collector is
// paused throughout, because a collection empties those caches. The
// in-process windows check that they opened no page. Measured at 0 objects
// in every case, against 55 a step in process, 67 with a recorder and 63
// over TCP (both ends) before the per-call jobs, closures, sweep timers,
// rank goroutines, timers and command slices were recycled. A whole cycle,
// pages included, must stay within 6 KiB a step: the pages are 4.2 KiB of
// it (measured at 4.2 KiB in all three cases, against 7.7–9.3 before).
func TestDecodeStepAllocationBudget(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	const ranks, batch, cycle, pageSteps, windows, kibPerStep = 2, 8, 32, 2, 4, 6.0
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := benchGQA8()
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vocab := cfg.Model.VocabSize
	for _, tc := range []struct {
		name      string
		recorders int // recorders whose buffers may take a block in a window
		dial      func(t *testing.T) *Cluster
	}{
		{"mem", 0, func(t *testing.T) *Cluster {
			c, err := NewCluster(w, ranks)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}},
		{"mem+trace", 1, func(t *testing.T) *Cluster {
			c, err := NewCluster(w, ranks, WithTrace(trace.New()))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}},
		{"tcp", ranks, func(t *testing.T) *Cluster { return startLoopbackCluster(t, cfg, ranks, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.dial(t)
			seqs, toks := make([]int, batch), make([]int, batch)
			for s := range seqs {
				seqs[s] = s + 2
				next, err := c.PrefillNext(seqs[s], arenaChunk(512, s, vocab), model.PassKV)
				if err != nil {
					t.Fatal(err)
				}
				toks[s] = next
			}
			steps := func(n int) {
				for i := 0; i < n; i++ {
					next, err := c.DecodeNext(seqs, toks)
					if err != nil {
						t.Fatal(err)
					}
					copy(toks, next)
				}
			}
			steps(2 * cycle)
			var m0, m1 runtime.MemStats
			counts := make([]uint64, windows)
			for i := range counts {
				steps(pageSteps)
				pages := residentPages(c, seqs)
				runtime.ReadMemStats(&m0)
				steps(cycle - pageSteps)
				runtime.ReadMemStats(&m1)
				if opened := residentPages(c, seqs) - pages; opened != 0 {
					t.Fatalf("a page-free window opened %d pages", opened)
				}
				counts[i] = m1.Mallocs - m0.Mallocs
			}
			best := slices.Min(counts)
			t.Logf("%d-step page-free windows of B=%d decode allocated %v objects", cycle-pageSteps, batch, counts)
			if best > uint64(2*tc.recorders) {
				t.Errorf("every %d-step page-free window of B=%d decode allocated objects (%v), budget %d (a span and an argument block a recorder)",
					cycle-pageSteps, batch, counts, 2*tc.recorders)
			}
			runtime.ReadMemStats(&m0)
			steps(cycle)
			runtime.ReadMemStats(&m1)
			kib := float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / cycle
			t.Logf("a whole page cycle allocates %.2f KiB a step", kib)
			if kib > kibPerStep {
				t.Errorf("a B=%d decode step allocates %.2f KiB over a page cycle, budget %.1f", batch, kib, kibPerStep)
			}
		})
	}
}

// freePages counts the pages on an in-process cluster's free stacks, over
// every rank and layer; -1 on a cluster whose ranks live elsewhere.
func freePages(c *Cluster) int {
	p, ok := c.plane.(*memPlane)
	if !ok {
		return -1
	}
	n := 0
	for _, e := range p.engines {
		for _, kc := range e.caches {
			n += kc.FreePages()
		}
	}
	return n
}

// residentPages counts the KV pages an in-process cluster's ranks hold for
// seqs, over every layer; -1 on a cluster whose ranks live elsewhere.
func residentPages(c *Cluster, seqs []int) int {
	p, ok := c.plane.(*memPlane)
	if !ok {
		return -1
	}
	n := 0
	for _, e := range p.engines {
		for _, kc := range e.caches {
			for _, seq := range seqs {
				n += len(kc.Runs(nil, seq)) // one run per page
			}
		}
	}
	return n
}

// A served request over TCP allocates what it keeps and little else:
// two loopback RunWorker ranks on bench-gqa8 (the ring_tcp workload without
// the HTTP stack) take a 1024-token prompt in two 512-token PrefillNext
// chunks and 32 DecodeNext steps, after one warm-up request of the same
// shape. The coordinator and both workers share the process, so
// the count covers every frame's encode, read and decode on both ends.
// It reads 0.02 KiB a token in 50 of 50 runs each at GOMAXPROCS 1, 2 and 4
// (2-vCPU Xeon). While the kernels took their scratch from process-wide
// free lists it read 0.06, 0.12 at most, after three warm-up requests with
// one kernel worker, and after one warm-up request 0.14 once with a
// collection inside the window (GOGC=50) and up to 0.50 at GOMAXPROCS=1,
// where 4 of 20 runs broke the budget. The budget of 0.25 is that 0.14
// reading plus 0.11 KiB of margin. It read 0.61 when the budget was
// first set at 1.0, 0.75–0.81 before the workers kept their command frames
// and the recorders their spans' arguments in blocks, 0.86–0.95 when every
// chunk and step sent a logits row back, and 4.91–5.00 when every frame was
// encoded into a fresh buffer, read into a fresh body and decoded into fresh
// blocks.
func TestRingTCPAllocationBudget(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	const ranks, prompt, chunk, steps, kibPerTok = 2, 1024, 512, 32, 0.25
	// Kernel scratch is per slot, each rank's own and each pool worker's,
	// grown to a budget-sized call of the model as the rank engines start,
	// so no request of this shape grows it, at any worker count.
	cfg := benchGQA8()
	c := startLoopbackCluster(t, cfg, ranks, 0)
	vocab := cfg.Model.VocabSize
	request := func(seq int) {
		toks := arenaChunk(prompt, seq, vocab)
		var next int
		var err error
		for at := 0; at < prompt; at += chunk {
			if next, err = c.PrefillNext(seq, toks[at:at+chunk], model.Auto); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < steps; i++ {
			ids, err := c.DecodeNext([]int{seq}, []int{next})
			if err != nil {
				t.Fatal(err)
			}
			next = ids[0]
		}
		c.Drop(seq)
	}
	request(1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	request(2)
	runtime.ReadMemStats(&m1)
	kib := float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / (prompt + steps)
	t.Logf("a warm %d-token TCP request with %d decode steps allocates %.2f KiB a token", prompt, steps, kib)
	if kib > kibPerTok {
		t.Errorf("a warm %d-token TCP request allocates %.2f KiB a token, budget %.2f", prompt, kib, kibPerTok)
	}
}

// Each rank holds its context once: the KV cache's pages are the only
// per-sequence KV store, which attention reads in place. Two ranks on
// bench-gqa8 take four 1024-token sessions (two 512-token PrefillLast chunks
// each, pass-KV) and eight fused decode steps, beside a warm-up round of the
// same shape that has primed every per-layer buffer and arena and stays
// resident, so the measured round cuts pages of its own; the live heap then
// grows by at most 1.15 × the bytes of the KV rows it now holds. The cache's
// own overhead — page headers, position lists, a partly filled tail page per
// sequence — reads 1.08×; a second copy of the rows anywhere would read 2×
// or more (3.17× with the per-sequence mirror this replaced). Less than 1×
// means the first reading held pages the round went on to use. Dropping the
// round puts exactly its pages on the caches' free stacks, and a second
// round of the same shape takes them from there: it grows the live heap by
// at most 2 % of its KV bytes, so nothing keeps a dropped sequence's rows
// anywhere else, and nothing grows with each round.
func TestResidentKVIsOneCopy(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	const ranks, sessions, prompt, chunk, steps = 2, 4, 1024, 512, 8
	// Kernel scratch is per slot, each rank's own and each pool worker's,
	// grown as the rank engines start: its bytes are a function of the
	// shapes and the slot count, not of how the ranks' kernel calls
	// happened to overlap.
	cfg := benchGQA8()
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(w, ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := cfg.Model
	serve := func(seqs []int) {
		toks := make([]int, len(seqs))
		for i, seq := range seqs {
			for at := 0; at < prompt; at += chunk {
				logits, err := c.PrefillLast(seq, arenaChunk(chunk, seq+at, m.VocabSize), model.PassKV)
				if err != nil {
					t.Fatal(err)
				}
				toks[i] = Argmax(logits)
			}
		}
		for s := 0; s < steps; s++ {
			out, err := c.DecodeBatch(seqs, toks)
			if err != nil {
				t.Fatal(err)
			}
			for i := range toks {
				toks[i] = Argmax(out[i])
			}
		}
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // and what the standard library's sync.Pool victim caches held
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// A warm-up round of the same shape: the layers' send buffers, the
	// arenas and the kernel scratch slots grow to what the round needs.
	warm, seqs, again := make([]int, sessions), make([]int, sessions), make([]int, sessions)
	for i := range seqs {
		warm[i], seqs[i], again[i] = i+2, i+2+sessions, i+2+2*sessions
	}
	serve(warm)
	before := liveHeap()
	serve(seqs)
	grown := float64(liveHeap()) - float64(before)
	kvBytes := float64(sessions*(prompt+steps)*m.Layers*2*m.NumKV*m.HeadDim) * 4
	ratio := grown / kvBytes
	t.Logf("%d resident sessions grew the live heap by %.0f KiB for %.0f KiB of KV rows: %.2f×", sessions, grown/1024, kvBytes/1024, ratio)
	if ratio > 1.15 {
		t.Fatalf("the live heap grew by %.2f× the resident KV bytes, budget 1.15×", ratio)
	}
	if ratio < 1 {
		// The rows themselves are live, so less growth means the first
		// reading held pages the round went on to use.
		t.Fatalf("the live heap grew by only %.2f× the resident KV bytes: the first reading held pages the round used", ratio)
	}
	held, free := residentPages(c, seqs), freePages(c)
	for _, seq := range seqs {
		c.Drop(seq)
	}
	if freed := freePages(c) - free; freed != held {
		t.Fatalf("dropping %d sessions that held %d pages put %d on the free stacks", sessions, held, freed)
	}
	before = liveHeap()
	serve(again)
	regrown := float64(liveHeap()) - float64(before)
	t.Logf("a second round on the first one's %d freed pages grew the live heap by %.1f KiB (%.2f %% of its KV bytes)", held, regrown/1024, 100*regrown/kvBytes)
	if regrown > 0.02*kvBytes {
		t.Fatalf("a second round on the first one's freed pages grew the live heap by %.0f KiB, more than 2 %% of its %.0f KiB of KV rows", regrown/1024, kvBytes/1024)
	}
}

// A served request reuses the pages of the requests before it: once one
// same-shape request has been served and dropped, a 2048-token request on
// two ranks of bench-gqa8 (four 512-token PrefillLast chunks, then 31
// DecodeNext steps) allocates less than a tenth of the KV bytes it holds,
// because its context comes off the caches' free stacks, which the
// collection forced before it does not empty. It allocated all of them again
// when a dropped sequence's pages went to the collector. Nor does it grow
// any kernel scratch slot, the ranks' own or a pool worker's: a rank engine
// grows them to a budget-sized call of its model as it starts, whichever
// slots the warm-up's chunks then ran on. The tenth of the KV bytes could
// not show such growth: 84.7 KiB of it once passed.
func TestWarmRequestReusesDroppedPages(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	const ranks, prompt, chunk, steps = 2, 2048, 512, 31
	cfg := benchGQA8()
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(w, ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := cfg.Model
	chunks := make(map[int][][]int)
	for seq := 1; seq <= 2; seq++ {
		for at := 0; at < prompt; at += chunk {
			chunks[seq] = append(chunks[seq], arenaChunk(chunk, seq+at, m.VocabSize))
		}
	}
	seqs, toks := make([]int, 1), make([]int, 1)
	serve := func(seq int) {
		for _, toks := range chunks[seq] {
			if _, err := c.PrefillLast(seq, toks, model.Auto); err != nil {
				t.Fatal(err)
			}
		}
		seqs[0], toks[0] = seq, 1
		for s := 0; s < steps; s++ {
			next, err := c.DecodeNext(seqs, toks)
			if err != nil {
				t.Fatal(err)
			}
			toks[0] = next[0]
		}
	}
	serve(1)
	c.Drop(1)
	runtime.GC()
	scratch := scratchBytes(c)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	serve(2)
	runtime.ReadMemStats(&m1)
	c.Drop(2)
	if grown := scratchBytes(c) - scratch; grown != 0 {
		t.Errorf("a warm request grew the kernel scratch by %.1f KiB (from %.1f KiB)", float64(grown)/1024, float64(scratch)/1024)
	}
	kvBytes := float64((prompt + steps) * m.Layers * (2*m.NumKV*m.HeadDim*4 + 8))
	got := float64(m1.TotalAlloc - m0.TotalAlloc)
	t.Logf("a warm %d-token request with %d decode steps allocated %.1f KiB for %.1f KiB of KV: %.1f %%", prompt, steps, got/1024, kvBytes/1024, 100*got/kvBytes)
	if got >= 0.1*kvBytes {
		t.Fatalf("a warm request allocated %.1f KiB, %.1f %% of its %.1f KiB of KV; budget 10 %%", got/1024, 100*got/kvBytes, kvBytes/1024)
	}
}
