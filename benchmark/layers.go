package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/trace"
	"repro/internal/transformer"
)

// The traced run. Per-layer timings come from this file calling each layer's
// public function directly, on inputs of the shape the workload produces (a
// rung); per-layer counts come from the engine's public accessors as deltas
// over a counted round. Nothing here reaches inside the program: spans and
// counters inside the layers are a later change.

// traceWorkload runs one workload traced: a reference round with tracing
// off, a traced round (spans around every handler call), a counted round
// (heartbeats silenced so every counter repeats exactly), a replay of the
// same requests straight on a cluster, and the layer rungs.
func traceWorkload(e Env, w Workload, seed int64, spans *spanLog, progress io.Writer) (WorkloadReport, error) {
	ref, err := newVerifier(e)
	if err != nil {
		return WorkloadReport{}, err
	}
	// Three rounds of half a measured round's requests each: the traced
	// run's timings are diagnostics, and it has to fit the same wall time.
	w.PerClient = (w.PerClient + 1) / 2
	in := genInputs(e, w, seed, 3)
	opts := []roundOpts{
		{ref: ref},
		{ref: ref, spans: spans, counts: true},
		{ref: ref, spans: spans, counts: true, quiet: true},
	}
	names := []string{"reference", "traced", "counted"}
	rounds := make([]RoundResult, len(opts))
	for i, opt := range opts {
		if rounds[i], err = runRound(e, w, in[i], opt); err != nil {
			return WorkloadReport{}, fmt.Errorf("%s round: %w", names[i], err)
		}
		fmt.Fprintf(progress, "%s %s round: setup %.2fs measured %.2fs\n", w.Name, names[i], rounds[i].SetupS, rounds[i].MeasuredS)
	}
	reference, traced, counted := rounds[0], rounds[1], rounds[2]
	wr := summarize(w, rounds, progress)

	values := map[string]Metric{}
	set := func(name string, v float64, n int) { values[name] = Metric{Value: v, N: n} }

	// Counts, per request or per token of the counted round, checked against
	// what the workload's shapes predict.
	want, err := predict(e, w, in[2])
	if err != nil {
		return WorkloadReport{}, err
	}
	c := counted.Counts
	reqs := float64(want.Requests)
	toks := float64(counted.Tokens)
	nreq := want.Requests
	set("server.prefill_chunks", float64(c.Batch.PrefillChunks)/reqs, nreq)
	set("server.iters", float64(c.Batch.Iterations)/reqs, nreq)
	set("server.batch_occupancy_mean", ratio(float64(c.Batch.OccupancySum), float64(c.Batch.Iterations)), int(c.Batch.Iterations))
	set("prefixcache.hit_token_share", c.Reuse.HitRate(), nreq)
	set("prefixcache.evicted_tokens", float64(c.Prefix.EvictedTokens), nreq)
	set("kvcache.assembly_rows_per_tok", float64(c.Assembly.RebuildRows+c.Assembly.AppendedRows)/toks, nreq)
	set("ring.passkv_chunks", float64(c.Reuse.PassKVChunks)/reqs, nreq)
	set("ring.passq_chunks", float64(c.Reuse.PassQChunks)/reqs, nreq)
	set("ring.sweeps", c.Sweeps/reqs, nreq)
	set("parallel.jobs_per_tok", float64(c.Pool.Jobs)/toks, nreq)
	set("comm.bytes_per_tok", c.CommBytes/toks, nreq)
	set("comm.msgs_per_tok", float64(c.CommMsgs)/toks, nreq)
	set("wire.bytes_per_tok", float64(c.WireBytes)/toks, nreq)
	set("wire.frames_per_tok", float64(c.WireFrames)/toks, nreq)
	for _, chk := range []struct {
		what      string
		got, want float64
	}{
		{"pass-KV chunks", float64(c.Reuse.PassKVChunks), float64(want.PassKVChunks)},
		{"pass-Q chunks", float64(c.Reuse.PassQChunks), float64(want.PassQChunks)},
		{"scheduler iterations", float64(c.Batch.Iterations), float64(want.Iterations)},
		{"occupancy sum", float64(c.Batch.OccupancySum), float64(want.OccupancySum)},
		{"cached prompt tokens", float64(c.Reuse.CachedTokens), float64(want.Cached)},
		{"computed prompt tokens", float64(c.Reuse.ComputedTokens), float64(want.Computed)},
		{"modeled comm bytes", c.CommBytes, want.CommBytes},
		{"modeled comm messages", float64(c.CommMsgs), float64(want.CommMsgs)},
		{"ring sweeps", c.Sweeps, float64(want.Sweeps)},
		{"evicted prefix tokens", float64(c.Prefix.EvictedTokens), 0},
	} {
		wr.Ops++
		if chk.got != chk.want {
			wr.Failed++
			fmt.Fprintf(progress, "check failed: %s: counted %s = %v, shapes predict %v\n", w.Name, chk.what, chk.got, chk.want)
		}
	}

	// Timing-flavoured counters come from the traced round, which keeps the
	// shipped heartbeats.
	tc := traced.Counts
	set("server.queue_wait_ms_mean", ratio(tc.Prefill.TotalWait.Seconds()*1e3, float64(tc.Prefill.Executed)), int(tc.Prefill.Executed))
	set("ring.overlap_hidden_share", ratio(float64(tc.Overlap.Hidden), float64(tc.Overlap.Steps)), int(tc.Overlap.Steps))
	set("parallel.stolen_share", ratio(float64(tc.Pool.ChunksStolen), float64(tc.Pool.Chunks)), int(tc.Pool.Chunks))
	var ttft, refTTFT, gen, itl []float64
	for _, s := range traced.Samples {
		if s.Err == nil {
			ttft = append(ttft, s.TTFTMs)
			gen = append(gen, s.GenMs)
			itl = append(itl, s.ITLMs...)
		}
	}
	for _, s := range reference.Samples {
		if s.Err == nil {
			refTTFT = append(refTTFT, s.TTFTMs)
		}
	}
	set("server.ttft_ms_p90", percentile(ttft, 90), len(ttft))
	set("server.itl_ms_p99", percentile(itl, 99), len(itl))
	set("bench.trace_overhead_share", ratio(median(ttft), median(refTTFT))-1, len(ttft))

	// The same requests straight on a cluster: what the serving layers add.
	rungs := spans.begin("rungs", -1, -1)
	defer spans.end(rungs)
	l := &ladder{e: e, w: w, spans: spans, parent: rungs, rng: rand.New(rand.NewSource(seed))}
	d, err := l.direct(in[1])
	if err != nil {
		return WorkloadReport{}, fmt.Errorf("direct cluster replay: %w", err)
	}
	set("transformer.prefill_ms", median(d.prefillMs), len(d.prefillMs))
	set("transformer.decode_step_ms", median(d.stepMs), len(d.stepMs))
	set("transformer.adopt_ms", median(d.adoptMs), len(d.adoptMs))
	set("transformer.nonattn_share", d.nonAttnShare, len(d.prefillMs))
	steps := float64(w.Out)
	set("server.self_ms_per_req", median(ttft)+median(gen)-median(d.prefillMs)-median(d.genMs), len(ttft))
	set("server.step_overhead_us", (median(gen)-median(d.genMs))/steps*1e3, len(gen))

	if err := l.rungs(set); err != nil {
		return WorkloadReport{}, err
	}
	wr.Layers = declared(perLayer(), values)
	return wr, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ladder holds what the rungs of one workload share.
type ladder struct {
	e      Env
	w      Workload
	spans  *spanLog
	parent int
	rng    *rand.Rand
}

// measure repeats one rung call until the rung budget is spent (three calls
// at least) and returns the median call time in seconds and the call count.
// fn times itself, so set-up and clean-up a call needs stay outside the
// number; one span covers the whole rung.
func (l *ladder) measure(name string, fn func() (time.Duration, error)) (float64, int, error) {
	id := l.spans.begin("rung."+name, l.parent, -1)
	defer l.spans.end(id)
	var samples []float64
	for spent := time.Duration(0); len(samples) < 3 || spent < l.e.RungBudget; {
		d, err := fn()
		if err != nil {
			return 0, 0, fmt.Errorf("rung %s: %w", name, err)
		}
		samples = append(samples, d.Seconds())
		spent += d
	}
	return median(samples), len(samples), nil
}

// timed is measure for a call that needs nothing around it.
func (l *ladder) timed(name string, fn func() error) (float64, int, error) {
	return l.measure(name, func() (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	})
}

// batched is timed for calls too short to time singly: each sample is the
// mean of reps back-to-back calls.
func (l *ladder) batched(name string, reps int, fn func()) (float64, int, error) {
	sec, n, err := l.timed(name, func() error {
		for i := 0; i < reps; i++ {
			fn()
		}
		return nil
	})
	return sec / float64(reps), n * reps, err
}

// lastChunk is the workload's final prompt chunk: T new tokens on top of P
// resident ones.
func (l *ladder) lastChunk() (T, P int) {
	T = l.w.Prompt % l.e.TokenBudget
	if T == 0 {
		T = min(l.e.TokenBudget, l.w.Prompt)
	}
	return T, l.w.Prompt - T
}

// canonical is the block-aligned prompt prefix a released session donates
// (every workload's prompt is at least one block).
func (l *ladder) canonical() int { return l.e.blocks(l.w.Prompt) }

// directResult is the direct cluster replay's timings.
type directResult struct {
	prefillMs, genMs []float64 // per request (Barrier: per round phase)
	stepMs           []float64 // per decode step (Barrier: per fused iteration)
	adoptMs          []float64 // DetachPrefix + AdoptPrefix of the canonical prefix
	nonAttnShare     float64   // share of prefill wall outside rank 0's ring sweeps
}

// cluster builds a bare cluster like the workload's: in-process, or behind
// loopback sockets. The returned stop closes it and waits for its workers.
func (l *ladder) cluster(rec *trace.Recorder) (*transformer.Cluster, func() error, error) {
	w, err := transformer.NewWeights(l.e.Model)
	if err != nil {
		return nil, nil, err
	}
	if !l.w.TCP {
		c, err := transformer.NewCluster(w, l.e.Ranks, transformer.WithTrace(rec))
		if err != nil {
			return nil, nil, err
		}
		return c, c.Close, nil
	}
	addrs, wait, err := loopbackWorkers(l.e, false)
	if err != nil {
		return nil, nil, err
	}
	c, err := transformer.ConnectCluster(w, transformer.ConnectConfig{Addrs: addrs, Trace: rec})
	if err != nil {
		wait()
		return nil, nil, err
	}
	return c, func() error {
		if err := c.Close(); err != nil {
			wait()
			return err
		}
		return wait()
	}, nil
}

// direct replays the round's requests on a bare cluster with the calls the
// scheduler would issue, timing prefill and decode separately. The
// difference to the handler timings is what the serving layers add.
func (l *ladder) direct(in RoundInputs) (directResult, error) {
	var d directResult
	id := l.spans.begin("rung.transformer.direct", l.parent, -1)
	defer l.spans.end(id)
	rec := trace.New()
	c, stop, err := l.cluster(rec)
	if err != nil {
		return d, err
	}
	defer stop()
	e, w := l.e, l.w

	// Warm-up, then the canonical prefix of the warm sequence is what a
	// release would donate; detach+adopt of it is the adoption rung.
	const warm = 1 << 20
	if _, _, _, err := directRequest(c, e, warm, in.Warm.Prompt, w.Out); err != nil {
		return d, err
	}
	for i := 0; i < 16; i++ {
		scratch := warm + 1 + i
		t0 := time.Now()
		pre, err := c.DetachPrefix(warm, l.canonical())
		if err == nil {
			err = c.AdoptPrefix(scratch, pre)
		}
		d.adoptMs = append(d.adoptMs, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			return d, err
		}
		c.Drop(scratch)
		pre.Release()
	}
	var shared *transformer.PrefixKV
	if w.Shared > 0 {
		if shared, err = c.DetachPrefix(warm, e.blocks(w.Shared)); err != nil {
			return d, err
		}
		defer shared.Release()
	}
	c.Drop(warm)

	var windows [][2]int64 // prefill phases, Unix ns, for the sweep share
	var prefillWall time.Duration
	if w.Barrier {
		for rep := 0; rep < 2; rep++ {
			t0 := time.Now()
			pre, gen, iters, err := directBarrier(c, e, w, in, rep)
			if err != nil {
				return d, err
			}
			windows = append(windows, [2]int64{t0.UnixNano(), t0.Add(pre).UnixNano()})
			prefillWall += pre
			d.prefillMs = append(d.prefillMs, float64(pre.Nanoseconds())/1e6/float64(len(in.Clients)))
			d.genMs = append(d.genMs, float64(gen.Nanoseconds())/1e6)
			d.stepMs = append(d.stepMs, float64(gen.Nanoseconds())/1e6/float64(iters))
		}
	} else {
		reqs := in.Clients[0]
		for i := 0; i < min(3, len(reqs)); i++ {
			rq := reqs[i]
			tokens := rq.Prompt
			t0 := time.Now()
			if shared != nil {
				if err := c.AdoptPrefix(rq.Session, shared); err != nil {
					return d, err
				}
				tokens = tokens[shared.Tokens():]
			}
			adopt := time.Since(t0)
			_, pre, gen, err := directRequest(c, e, rq.Session, tokens, w.Out)
			if err != nil {
				return d, err
			}
			c.Drop(rq.Session)
			pre += adopt
			windows = append(windows, [2]int64{t0.UnixNano(), t0.Add(pre).UnixNano()})
			prefillWall += pre
			d.prefillMs = append(d.prefillMs, float64(pre.Nanoseconds())/1e6)
			d.genMs = append(d.genMs, float64(gen.Nanoseconds())/1e6)
			d.stepMs = append(d.stepMs, float64(gen.Nanoseconds())/1e6/float64(w.Out))
		}
	}

	if err := c.SyncTrace(); err != nil {
		return d, err
	}
	var sweepNs int64
	for _, s := range rec.Spans() {
		if s.Name != "ring.sweep" || s.Rank != 0 {
			continue
		}
		for _, win := range windows {
			if s.Start >= win[0] && s.Start < win[1] {
				sweepNs += s.Dur
			}
		}
	}
	d.nonAttnShare = 1 - ratio(float64(sweepNs), float64(prefillWall.Nanoseconds()))
	return d, nil
}

// directBarrier replays a Barrier round: every session's prompt, then the
// ramp of one-token chunks fused with the growing decode batch, then the
// full batch until every session has its tokens.
func directBarrier(c *transformer.Cluster, e Env, w Workload, in RoundInputs, rep int) (prefill, gen time.Duration, iters int, err error) {
	n := len(in.Clients)
	seqs := make([]int, n)
	next := make([]int, n)
	t0 := time.Now()
	for i := range in.Clients {
		seqs[i] = in.Clients[i][0].Session + rep*n
		if next[i], err = prefillChunked(c, e, seqs[i], in.Clients[i][0].Prompt); err != nil {
			return 0, 0, 0, err
		}
	}
	prefill = time.Since(t0)
	t0 = time.Now()
	left := make([]int, n) // decode steps still to run, once past the chunk
	for started := 0; ; started++ {
		var bs, bt, bi []int
		for i := 0; i < min(started, n); i++ {
			if left[i] > 0 {
				bs, bt, bi = append(bs, seqs[i]), append(bt, next[i]), append(bi, i)
			}
		}
		if started >= n && len(bs) == 0 {
			break
		}
		if len(bs) > 0 {
			out, err := c.DecodeBatch(bs, bt)
			if err != nil {
				return 0, 0, 0, err
			}
			for j, i := range bi {
				next[i] = transformer.Argmax(out[j])
				left[i]--
			}
		}
		if started < n {
			if next[started], err = prefillChunked(c, e, seqs[started], []int{next[started]}); err != nil {
				return 0, 0, 0, err
			}
			left[started] = w.Out - 1
		}
		iters++
	}
	gen = time.Since(t0)
	for _, s := range seqs {
		c.Drop(s)
	}
	return prefill, gen, iters, nil
}
