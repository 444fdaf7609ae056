package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/attention"
	"repro/internal/comm"
	"repro/internal/comm/transport"
	"repro/internal/comm/wire"
	"repro/internal/kvcache"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/prefixcache"
	"repro/internal/ring"
	"repro/internal/sharding"
	"repro/internal/simd"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// The layer rungs: each layer below the cluster timed through its public
// functions, on inputs shaped like the workload's.

// nopEntry is the prefix-tree payload of the prefixcache rungs.
type nopEntry struct{}

func (nopEntry) Release() {}

// rungs times every layer below the cluster on the workload's shapes.
func (l *ladder) rungs(set func(name string, v float64, n int)) error {
	e, w := l.e, l.w
	m := e.Model.Model
	n := e.Ranks
	rng := l.rng
	T, P := l.lastChunk()
	hopRows := (P + T + n - 1) / n // KV rows one rank holds at the last chunk
	us := func(name string) func(sec float64, n int, err error) error {
		return func(sec float64, n int, err error) error {
			set(name, sec*1e6, n)
			return err
		}
	}
	ms := func(name string) func(sec float64, n int, err error) error {
		return func(sec float64, n int, err error) error {
			set(name, sec*1e3, n)
			return err
		}
	}
	randInts := func(k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = rng.Intn(m.VocabSize)
		}
		return out
	}

	// simd / tensor / parallel: the kernels everything else is made of.
	a, b := tensor.RandN(rng, 1, 1, m.ModelDim).Data, tensor.RandN(rng, 1, 1, m.ModelDim).Data
	var sink float32
	sec, cnt, err := l.batched("simd.dot", 4096, func() { sink += simd.DotF32(a, b) })
	if err != nil {
		return err
	}
	set("simd.dot_ns", sec*1e9, cnt)
	set("simd.dot_gflops", 2*float64(m.ModelDim)/sec/1e9, cnt) // computed: 2·D flops per dot
	up := tensor.RandMatrix(rng, m.FFNDim, m.ModelDim)
	matmul := func(rows int) func() {
		in, dst := tensor.RandN(rng, rows, 1, m.ModelDim).Data, make([]float32, rows*m.FFNDim)
		return func() { up.ApplyRowsInto(dst, in, rows) }
	}
	if err := ms("tensor.matmul_prefill_ms")(l.batched("tensor.matmul_prefill", 1, matmul(e.TokenBudget))); err != nil {
		return err
	}
	if err := us("tensor.matmul_decode_us")(l.batched("tensor.matmul_decode", 64, matmul(w.Clients))); err != nil {
		return err
	}
	if err := us("parallel.for_overhead_us")(l.batched("parallel.for", 256, func() { parallel.For(8, func(lo, hi int) {}) })); err != nil {
		return err
	}
	if err := us("sharding.plan_us")(l.batched("sharding.plan", 64, func() { sharding.NewBatchShard([]int{T}, n) })); err != nil {
		return err
	}

	// attention: one rank's tile of the last chunk, and one decode row.
	tile, err := newTile(rng, m.NumHeads, m.NumKV, m.HeadDim, T, P, e.TokenBudget, n)
	if err != nil {
		return err
	}
	out := attention.NewOutput(tile.q.Tokens, m.NumHeads, m.HeadDim)
	sec, cnt, err = l.timed("attention.gqa_prefill", func() error { return attention.GQAInto(out, tile.q, tile.k, tile.v, tile.mask) })
	if err != nil {
		return err
	}
	set("attention.gqa_prefill_ms", sec*1e3, cnt)
	// Computed from shapes: 4·DH flops (QK^T and PV) per head for every
	// (query, key) pair the causal mask admits.
	set("attention.gflops", 4*float64(m.HeadDim*m.NumHeads)*float64(tile.pairs)/sec/1e9, cnt)
	row := attention.NewOutput(1, m.NumHeads, m.HeadDim)
	q1 := tensor.RandN(rng, 1, m.NumHeads, m.HeadDim)
	decodeMask := attention.Mask{QPos: []int{w.Prompt}, QSeq: []int{0}, KVPos: tile.mask.KVPos, KVSeq: tile.mask.KVSeq}
	if err := us("attention.gqa_decode_us")(l.timed("attention.gqa_decode", func() error {
		return attention.GQAInto(row, q1, tile.k, tile.v, decodeMask)
	})); err != nil {
		return err
	}
	half := attention.NewOutput(tile.q.Tokens, m.NumHeads, m.HeadDim)
	if err := attention.GQAInto(half, tile.q, tile.k, tile.v, tile.mask); err != nil {
		return err
	}
	if err := us("attention.merge_us")(l.timed("attention.merge", func() error { attention.Merge(out, half); return nil })); err != nil {
		return err
	}

	// kvcache: append, mirror copy, span adoption on one rank's share.
	kc, err := kvcache.New(kvcache.Config{KVHeads: m.NumKV, HeadDim: m.HeadDim})
	if err != nil {
		return err
	}
	if err := kc.Append(0, tile.k, tile.v, tile.mask.KVPos); err != nil {
		return err
	}
	appendRows := max(T/n, 1)
	if w.Barrier {
		appendRows = 1 // decode-dominated: one row per step
	}
	ak, av := tensor.RandN(rng, appendRows, m.NumKV, m.HeadDim), tensor.RandN(rng, appendRows, m.NumKV, m.HeadDim)
	apos := make([]int, appendRows)
	for i := range apos {
		apos[i] = P + T + i
	}
	sec, cnt, err = l.measure("kvcache.append", func() (time.Duration, error) {
		t0 := time.Now()
		err := kc.Append(1, ak, av, apos)
		d := time.Since(t0)
		kc.Drop(1)
		return d, err
	})
	if err != nil {
		return err
	}
	set("kvcache.append_us_per_tok", sec*1e6/float64(appendRows), cnt)
	rowLen := m.NumKV * m.HeadDim
	kbuf, vbuf, pbuf := make([]float32, hopRows*rowLen), make([]float32, hopRows*rowLen), make([]int, hopRows)
	sec, cnt, err = l.timed("kvcache.copyrange", func() error { kc.CopyRange(0, 0, kbuf, vbuf, pbuf); return nil })
	if err != nil {
		return err
	}
	set("kvcache.copyrange_us_per_ktok", sec*1e6/float64(kc.SeqLen(0))*1e3, cnt)
	if err := us("kvcache.adopt_us")(l.measure("kvcache.adopt", func() (time.Duration, error) {
		t0 := time.Now()
		sp, err := kc.AcquireSpan(0, l.canonical())
		if err == nil {
			err = kc.AdoptSpan(2, sp)
		}
		d := time.Since(t0)
		kc.Drop(2)
		sp.Release()
		return d, err
	})); err != nil {
		return err
	}

	// prefixcache: a tree holding what this workload's releases donate.
	tree, err := prefixcache.New(prefixcache.Config{BlockSize: e.TokenBudget})
	if err != nil {
		return err
	}
	build := func(int) (prefixcache.Entry, error) { return nopEntry{}, nil }
	corpus := randInts(w.Shared)
	prompt := func() []int { return append(append([]int(nil), corpus...), randInts(w.Prompt-w.Shared)...) }
	for i := 0; i < w.Clients; i++ {
		if _, err := tree.Insert(prompt()[:l.canonical()], build); err != nil {
			return err
		}
	}
	probe := prompt()
	if err := us("prefixcache.lookup_us")(l.batched("prefixcache.lookup", 16, func() { tree.Lookup(probe) })); err != nil {
		return err
	}
	if err := us("prefixcache.insert_us")(l.measure("prefixcache.insert", func() (time.Duration, error) {
		fresh := prompt()[:l.canonical()]
		t0 := time.Now()
		_, err := tree.Insert(fresh, build)
		d := time.Since(t0)
		tree.EvictTokens(len(fresh) - e.blocks(w.Shared))
		return d, err
	})); err != nil {
		return err
	}

	// ring: one layer's sweep over a 2-rank in-memory world, at the shapes
	// the issue fixes (a budget-sized pass-KV chunk and a half-budget pass-Q
	// chunk on three budgets of context, an 8-session decode step).
	ringP := 3 * e.TokenBudget
	kvSec, kvShare, cnt, err := l.ringPrefill("ring.passkv", ring.PassKVPrefill, e.TokenBudget, ringP)
	if err != nil {
		return err
	}
	set("ring.passkv_ms", kvSec*1e3, cnt)
	qSec, qShare, cnt, err := l.ringPrefill("ring.passq", ring.PassQPrefill, max(e.TokenBudget/2, 1), ringP)
	if err != nil {
		return err
	}
	set("ring.passq_ms", qSec*1e3, cnt)
	share := kvShare
	if perf.ChooseVariant(m, T, P) == perf.PassQ {
		share = qShare
	}
	set("ring.exposed_comm_share", share, cnt)
	if err := ms("ring.decode_ms")(l.ringDecode("ring.decode", 8, e.TokenBudget)); err != nil {
		return err
	}

	// comm / wire / transport: one hop of the last chunk's KV block.
	hop := &wire.KVBlock{K: tile.k, V: tile.v, Pos: tile.mask.KVPos, Seq: tile.mask.KVSeq}
	world := comm.NewWorld(n)
	const hopReps = 64
	sec, cnt, err = l.timed("comm.sendrecv", func() error {
		return world.Run(func(r *comm.Rank) error {
			for i := 0; i < hopReps; i++ {
				if _, err := r.SendRecv((r.ID+1)%n, (r.ID-1+n)%n, hop, 0); err != nil {
					return err
				}
			}
			return nil
		})
	})
	world.Transport().Close()
	if err != nil {
		return err
	}
	set("comm.sendrecv_us", sec*1e6/hopReps, cnt*hopReps)
	frame, err := wire.AppendFrame(nil, hop)
	if err != nil {
		return err
	}
	mb := float64(len(frame)) / 1e6
	sec, cnt, err = l.timed("wire.encode", func() error {
		var err error
		frame, err = wire.AppendFrame(frame[:0], hop)
		return err
	})
	if err != nil {
		return err
	}
	set("wire.encode_us_per_mb", sec*1e6/mb, cnt)
	sec, cnt, err = l.timed("wire.decode", func() error {
		_, _, err := wire.ReadFrame(bytes.NewReader(frame), 0)
		return err
	})
	if err != nil {
		return err
	}
	set("wire.decode_us_per_mb", sec*1e6/mb, cnt)
	return l.tcpRungs(set, hop, mb)
}

// tile is one rank's attention problem at a prompt's last chunk: the rank's
// share of the chunk's queries against the rank's share of the whole
// context's keys, at the positions load-balanced sharding puts them.
type tile struct {
	q, k, v *tensor.Tensor
	mask    attention.Mask
	pairs   int64 // (query, key) pairs the causal mask admits
}

func newTile(rng *rand.Rand, nh, nkv, dh, T, P, budget, n int) (*tile, error) {
	var kvPos []int
	for pos := 0; pos < P+T; {
		k := min(budget-pos%budget, P+T-pos)
		plan, err := sharding.NewBatchShard([]int{k}, n)
		if err != nil {
			return nil, err
		}
		for _, lp := range plan.LocalPositions(0) {
			if lp != sharding.Pad {
				kvPos = append(kvPos, pos+lp)
			}
		}
		pos += k
	}
	plan, err := sharding.NewBatchShard([]int{T}, n)
	if err != nil {
		return nil, err
	}
	var qPos []int
	for _, lp := range plan.LocalPositions(0) {
		if lp != sharding.Pad {
			qPos = append(qPos, P+lp)
		}
	}
	t := &tile{
		q: tensor.RandN(rng, len(qPos), nh, dh),
		k: tensor.RandN(rng, len(kvPos), nkv, dh),
		v: tensor.RandN(rng, len(kvPos), nkv, dh),
		mask: attention.Mask{
			QPos: qPos, QSeq: make([]int, len(qPos)),
			KVPos: kvPos, KVSeq: make([]int, len(kvPos)),
		},
	}
	for _, qp := range qPos {
		for _, kp := range kvPos {
			if kp <= qp {
				t.pairs++
			}
		}
	}
	return t, nil
}

// ringPrefill times one layer's prefill sweep of T new tokens on P resident
// ones across a 2-rank in-memory world, and returns with it the share of the
// sweep rank 0 spent in communication it could not hide (from the sweep
// timer the rung supplies).
func (l *ladder) ringPrefill(name string, run func(*ring.PrefillInput) (*attention.Output, error), T, P int) (sec, commShare float64, calls int, err error) {
	m := l.e.Model.Model
	n := l.e.Ranks
	world := comm.NewWorld(n)
	defer world.Transport().Close()
	caches := make([]*kvcache.Cache, n)
	for r := range caches {
		if caches[r], err = kvcache.New(kvcache.Config{KVHeads: m.NumKV, HeadDim: m.HeadDim}); err != nil {
			return 0, 0, 0, err
		}
	}
	fill := func(T, P int) (q, k, v []*tensor.Tensor, plan *sharding.BatchShard, err error) {
		if plan, err = sharding.NewBatchShard([]int{T}, n); err != nil {
			return
		}
		fq := tensor.RandN(l.rng, T, m.NumHeads, m.HeadDim)
		fk, fv := tensor.RandN(l.rng, T, m.NumKV, m.HeadDim), tensor.RandN(l.rng, T, m.NumKV, m.HeadDim)
		for r := 0; r < n; r++ {
			q, k, v = append(q, plan.Shard(fq, r)), append(k, plan.Shard(fk, r)), append(v, plan.Shard(fv, r))
		}
		return
	}
	for pos := 0; pos < P; pos += l.e.TokenBudget {
		_, k, v, plan, err := fill(l.e.TokenBudget, pos)
		if err != nil {
			return 0, 0, 0, err
		}
		for r := 0; r < n; r++ {
			if err := ring.AppendLocalKV(caches[r], plan, r, []int{pos}, []int{0}, k[r], v[r]); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	q, k, v, plan, err := fill(T, P)
	if err != nil {
		return 0, 0, 0, err
	}
	rec := trace.New()
	sec, calls, err = l.timed(name, func() error {
		return world.Run(func(r *comm.Rank) error {
			_, err := run(&ring.PrefillInput{
				Rank: r, Plan: plan, P: []int{P}, SeqIDs: []int{0},
				Q: q[r.ID], K: k[r.ID], V: v[r.ID],
				Cache: caches[r.ID], Elem: m.ElemBytes,
				Trace: rec.Sweep(r.ID, 1, "prefill"),
			})
			return err
		})
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var comm, total int64
	for _, s := range rec.Spans() {
		if s.Name == "ring.sweep" && s.Rank == 0 {
			comm += s.Args["comm_ns"]
			total += s.Args["comm_ns"] + s.Args["compute_ns"] + s.Args["all2all_ns"]
		}
	}
	return sec, ratio(float64(comm), float64(total)), calls, nil
}

// ringDecode times one layer's fused decode sweep of `batch` sessions with
// ctx resident tokens each. Every call appends the step's KV, as serving
// does, so the context grows by one token per call.
func (l *ladder) ringDecode(name string, batch, ctx int) (sec float64, calls int, err error) {
	m := l.e.Model.Model
	n := l.e.Ranks
	world := comm.NewWorld(n)
	defer world.Transport().Close()
	caches := make([]*kvcache.Cache, n)
	blocks := make([]*ring.BlockCache, n)
	plan, err := sharding.NewBatchShard([]int{ctx}, n)
	if err != nil {
		return 0, 0, err
	}
	for r := range caches {
		if caches[r], err = kvcache.New(kvcache.Config{KVHeads: m.NumKV, HeadDim: m.HeadDim}); err != nil {
			return 0, 0, err
		}
		blocks[r] = ring.NewBlockCache()
		for s := 0; s < batch; s++ {
			fk, fv := tensor.RandN(l.rng, ctx, m.NumKV, m.HeadDim), tensor.RandN(l.rng, ctx, m.NumKV, m.HeadDim)
			if err := ring.AppendLocalKV(caches[r], plan, r, []int{0}, []int{s}, plan.Shard(fk, r), plan.Shard(fv, r)); err != nil {
				return 0, 0, err
			}
		}
	}
	q := tensor.RandN(l.rng, batch, m.NumHeads, m.HeadDim)
	k, v := tensor.RandN(l.rng, batch, m.NumKV, m.HeadDim), tensor.RandN(l.rng, batch, m.NumKV, m.HeadDim)
	step := 0
	return l.timed(name, func() error {
		owned := make([][]ring.DecodeToken, n)
		rows := make([][]int, n)
		for s := 0; s < batch; s++ {
			r := sharding.DecodeOwner(s, step, n)
			owned[r] = append(owned[r], ring.DecodeToken{Seq: s, Pos: ctx + step})
			rows[r] = append(rows[r], s)
		}
		blockLen := 1
		for r := range owned {
			blockLen = max(blockLen, len(owned[r]))
		}
		step++
		return world.Run(func(r *comm.Rank) error {
			_, err := ring.PassQDecode(&ring.DecodeInput{
				Rank: r, NumSeqs: batch, Owned: owned[r.ID], BlockLen: blockLen,
				Q: q.Gather(rows[r.ID]), K: k.Gather(rows[r.ID]), V: v.Gather(rows[r.ID]),
				Cache: caches[r.ID], Blocks: blocks[r.ID], Elem: m.ElemBytes,
			})
			return err
		})
	})
}

// tcpRungs joins two loopback transport endpoints and times a round trip of
// a decode-sized query block and a one-way stream of the workload's KV hop.
func (l *ladder) tcpRungs(set func(name string, v float64, n int), hop *wire.KVBlock, hopMB float64) error {
	m := l.e.Model.Model
	listeners, addrs, err := loopbackListeners(2)
	if err != nil {
		return err
	}
	ends := make([]*transport.TCP, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range ends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ends[i], _, errs[i] = transport.Join(transport.TCPConfig{World: 2, Rank: i, Addrs: addrs, Listener: listeners[i]})
		}()
	}
	wg.Wait()
	defer func() {
		for _, t := range ends {
			if t != nil {
				t.Close()
			}
		}
	}()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("transport.Join: %w", err)
		}
	}
	const timeout = 10 * time.Second
	ping := &wire.QBlock{Q: tensor.RandN(l.rng, 1, m.NumHeads, m.HeadDim), Pos: []int{0}, Seq: []int{0}}
	// The far end echoes whatever arrives until its link closes.
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			v, err := ends[1].Recv(1, 0, time.Hour)
			if err != nil {
				return
			}
			if _, isPing := v.(*wire.QBlock); isPing {
				if ends[1].Send(1, 0, v, timeout) != nil {
					return
				}
			}
		}
	}()
	sec, cnt, err := l.timed("transport.tcp_rtt", func() error {
		if err := ends[0].Send(0, 1, ping, timeout); err != nil {
			return err
		}
		_, err := ends[0].Recv(0, 1, timeout)
		return err
	})
	if err != nil {
		return err
	}
	set("transport.tcp_rtt_us", sec*1e6, cnt)
	// Throughput: stream hops one way, close the window with a ping.
	const hops = 8
	sec, cnt, err = l.timed("transport.tcp_stream", func() error {
		for i := 0; i < hops; i++ {
			if err := ends[0].Send(0, 1, hop, timeout); err != nil {
				return err
			}
		}
		if err := ends[0].Send(0, 1, ping, timeout); err != nil {
			return err
		}
		_, err := ends[0].Recv(0, 1, timeout)
		return err
	})
	if err != nil {
		return err
	}
	set("transport.tcp_mb_per_s", hops*hopMB/sec, cnt)
	ends[0].Close()
	ends[1].Close()
	<-echoed
	return nil
}
