package transformer

import (
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/comm/wire"
	"repro/internal/model"
	"repro/internal/sharding"
)

// Argmax is the one sampler, on the ranks and in every oracle, and this is
// its rule.
func TestArgmaxRule(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, tc := range []struct {
		name string
		row  []float32
		want int
	}{
		{"largest", []float32{0.5, 2, -1, 1.5}, 1},
		{"+Inf", []float32{1, inf, 2}, 1},
		{"tie: lowest index", []float32{1, 3, 2, 3, 3}, 1},
		{"tie at index 0", []float32{3, 3}, 0},
		{"-0 ties +0", []float32{0, float32(math.Copysign(0, -1))}, 0},
		{"NaN at index 0 wins", []float32{nan, 1, inf}, 0},
		{"later NaN never wins", []float32{-inf, nan, -5}, 2},
		{"NaN after the best", []float32{1, nan, 0}, 0},
		{"all NaN", []float32{nan, nan, nan}, 0},
		{"all -Inf", []float32{-inf, -inf, -inf}, 0},
		{"empty", nil, 0},
	} {
		if got := Argmax(tc.row); got != tc.want {
			t.Errorf("%s: Argmax(%v) = %d, want %d", tc.name, tc.row, got, tc.want)
		}
	}
}

// tokenPair drives the same commands through two clusters of one set of
// weights: logits serves through PrefillLast and DecodeBatch and samples on
// the coordinator with Argmax (the oracle), tokens through PrefillNext and
// DecodeNext, where the rank holding a row samples it. Every id must equal
// the oracle's.
type tokenPair struct {
	t              *testing.T
	logits, tokens *Cluster
	vocab          int
}

func (p *tokenPair) prefill(seq int, toks []int, v model.Variant, what string) int {
	p.t.Helper()
	row, err := p.logits.PrefillLast(seq, toks, v)
	if err != nil {
		p.t.Fatalf("%s (logits): %v", what, err)
	}
	got, err := p.tokens.PrefillNext(seq, toks, v)
	if err != nil {
		p.t.Fatalf("%s (token): %v", what, err)
	}
	if want := Argmax(row); got != want {
		p.t.Fatalf("%s: the ranks sampled %d, Argmax of the logits is %d", what, got, want)
	}
	return got
}

func (p *tokenPair) decode(seqs, toks []int, what string) []int {
	p.t.Helper()
	rows, err := p.logits.DecodeBatch(seqs, toks)
	if err != nil {
		p.t.Fatalf("%s (logits): %v", what, err)
	}
	got, err := p.tokens.DecodeNext(seqs, toks)
	if err != nil {
		p.t.Fatalf("%s (token): %v", what, err)
	}
	for i := range seqs {
		if want := Argmax(rows[i]); got[i] != want {
			p.t.Fatalf("%s: sequence %d: the ranks sampled %d, Argmax of the logits is %d", what, seqs[i], got[i], want)
		}
	}
	return append([]int(nil), got...)
}

// script runs the token-path scenarios: for pass-KV, pass-Q and model.Auto a
// prompt in chunks of 1, 7, 300 and 512 tokens (a one-token chunk leaves
// every rank but one with no sampled row); the three sequences decoding
// fused, so their rows sit on different owners; and a warm chunk on a prefix
// adopted from a donor, decoding fused with the others.
func (p *tokenPair) script() {
	seq := 2
	var seqs, next []int
	for _, v := range []model.Variant{model.PassKV, model.PassQ, model.Auto} {
		var tok int
		for i, n := range []int{1, 7, 300, 512} {
			tok = p.prefill(seq, arenaChunk(n, seq*5+i, p.vocab), v, fmt.Sprintf("%v chunk %d (%d tokens)", v, i, n))
		}
		seqs, next = append(seqs, seq), append(next, tok)
		seq++
	}
	for step := 0; step < 6; step++ {
		next = p.decode(seqs, next, fmt.Sprintf("fused decode step %d", step))
	}
	donor, warm := seq, seq+1
	for _, c := range []*Cluster{p.logits, p.tokens} {
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
	seqs = append(seqs, warm)
	next = append(next, p.prefill(warm, arenaChunk(20, 8, p.vocab), model.Auto, "warm chunk on an adopted prefix"))
	for step := 0; step < 6; step++ {
		next = p.decode(seqs, next, fmt.Sprintf("fused decode step %d with the warm sequence", step))
	}
}

// The token path samples on the ranks exactly what the logits path samples
// on the coordinator: N = 1..4 in process, and at N = 2 over two RunWorker
// ranks on loopback sockets, where every id crosses the wire codec.
func TestTokenPathMatchesArgmaxOfLogits(t *testing.T) {
	cfg := Tiny(43)
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
			p := &tokenPair{t: t, logits: newCluster(n), tokens: newCluster(n), vocab: cfg.Model.VocabSize}
			p.script()
		})
	}
	t.Run("loopback", func(t *testing.T) {
		p := &tokenPair{t: t, logits: newCluster(2), tokens: startLoopbackCluster(t, cfg, 2, 0), vocab: cfg.Model.VocabSize}
		p.script()
	})
}

// tokenLog is what a token-path stream needs to come back after a rebuild:
// its prompt chunks and decode inputs, in order, replayed through the same
// calls so every KV row lands where it first did.
type tokenLog struct {
	seq    int
	chunks [][]int
	fed    []int // decode input tokens
}

// run executes one logged operation on c: a prefill chunk, or (chunk nil) a
// decode step fed tok.
func (l *tokenLog) run(c *Cluster, chunk []int, tok int) (int, error) {
	if chunk != nil {
		return c.PrefillNext(l.seq, chunk, model.Auto)
	}
	ids, err := c.DecodeNext([]int{l.seq}, []int{tok})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// replay re-runs the log on a rebuilt cluster, prefill chunks first.
func (l *tokenLog) replay(c *Cluster) error {
	for _, ch := range l.chunks {
		if _, err := l.run(c, ch, 0); err != nil {
			return err
		}
	}
	for _, tok := range l.fed {
		if _, err := l.run(c, nil, tok); err != nil {
			return err
		}
	}
	return nil
}

// oracleStream is the logits path's greedy stream: prompt chunks through
// PrefillLast, steps decode steps through Decode, Argmax on the coordinator.
func oracleStream(t *testing.T, c *Cluster, seq int, chunks [][]int, steps int) []int {
	t.Helper()
	var row []float32
	var err error
	for _, ch := range chunks {
		if row, err = c.PrefillLast(seq, ch, model.Auto); err != nil {
			t.Fatal(err)
		}
	}
	var out []int
	for i := 0; i < steps; i++ {
		out = append(out, Argmax(row))
		if row, err = c.Decode(seq, out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// recoveredStream serves the same stream through the token path, and
// whenever an operation fails it rebuilds the cluster, replays the log and
// retries, up to budget rebuilds. before, when set, runs ahead of the i-th
// operation's first attempt. It returns the stream and the rebuilds it took.
func recoveredStream(t *testing.T, c *Cluster, seq int, chunks [][]int, steps, budget int, before func(i int)) ([]int, int) {
	t.Helper()
	l := &tokenLog{seq: seq}
	rebuilds := 0
	do := func(chunk []int, tok int) int {
		if before != nil {
			before(len(l.chunks) + len(l.fed))
		}
		for {
			next, err := l.run(c, chunk, tok)
			if err == nil {
				if chunk != nil {
					l.chunks = append(l.chunks, chunk)
				} else {
					l.fed = append(l.fed, tok)
				}
				return next
			}
			for {
				if rebuilds++; rebuilds > budget {
					t.Fatalf("sequence %d: %d rebuilds and still failing: %v", seq, budget, err)
				}
				if err = c.Rebuild(); err == nil {
					if err = l.replay(c); err == nil {
						break
					}
				}
			}
		}
	}
	var next int
	for _, ch := range chunks {
		next = do(ch, 0)
	}
	var out []int
	for i := 0; i < steps; i++ {
		out = append(out, next)
		next = do(nil, next)
	}
	return out, rebuilds
}

// chunked cuts n prompt tokens into chunks of at most size.
func chunked(n, size, salt, vocab int) [][]int {
	toks := arenaChunk(n, salt, vocab)
	var out [][]int
	for at := 0; at < n; at += size {
		out = append(out, toks[at:min(at+size, n)])
	}
	return out
}

// A stream recovered mid-decode — a link fails, the cluster rebuilds and
// the token log replays through PrefillNext and DecodeNext — samples what
// the logits path samples on a cluster that never failed.
func TestTokenPathThroughRecovery(t *testing.T) {
	cfg := Tiny(31)
	const n, steps = 3, 12
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCluster(w, n)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	// A short receive timeout, so the failed link surfaces at once; it never
	// fires on the healthy path.
	victim, err := NewCluster(w, n, WithRecvTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	chunks := chunked(40, 16, 3, cfg.Model.VocabSize)
	want := oracleStream(t, ref, 1, chunks, steps)
	got, rebuilds := recoveredStream(t, victim, 1, chunks, steps, 2, func(i int) {
		if i == len(chunks)+steps/2 {
			victim.FailLink(0, 1)
		}
	})
	if rebuilds != 1 {
		t.Fatalf("the stream took %d rebuilds, want the one its failed link forces", rebuilds)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered token stream %v, logits path %v", got, want)
	}
}

// A stream served through a chaos-soaked loopback mesh — a slow link, a
// corrupted frame, a partition and a rank crash, each recovered by a
// rebuild and a token-log replay — samples what the logits path samples on
// an in-process cluster that saw no fault.
func TestTokenPathThroughChaosSoak(t *testing.T) {
	cfg := Tiny(29)
	const n, steps, sessions = 3, 12, 2
	sched := chaos.Soak(29, n, 24)
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	var injectedBefore int64
	before := chaos.Totals()
	for _, c := range before {
		injectedBefore += c
	}
	injectors := make([]*chaos.Injector, n)
	var wg sync.WaitGroup
	workerErrs := make([]error, n)
	for i := 0; i < n; i++ {
		injectors[i] = chaos.NewInjector(sched)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = RunWorkerLoop(WorkerConfig{
				Transformer: cfg, Rank: i, World: n,
				Listener: listeners[i], Addrs: addrs,
				Rejoin: true, MaxRejoins: 32,
				RendezvousTimeout: 20 * time.Second,
				RecvTimeout:       time.Second,
				WrapTransport:     injectors[i].Wrap,
			})
		}(i)
	}
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := ConnectCluster(w, ConnectConfig{Addrs: addrs, DialTimeout: 20 * time.Second, RecvTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		dist.Close()
		wg.Wait()
		for i, err := range workerErrs {
			if err != nil {
				t.Errorf("worker %d exited with: %v", i, err)
			}
		}
	})
	ref, err := NewCluster(w, n)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	total := 0
	for s := 1; s <= sessions; s++ {
		chunks := chunked(48, 16, s, cfg.Model.VocabSize)
		want := oracleStream(t, ref, s, chunks, steps)
		got, rebuilds := recoveredStream(t, dist, s, chunks, steps, 16, nil)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("session %d: soaked token stream %v, logits path %v", s, got, want)
		}
		total += rebuilds
	}
	after := chaos.Totals()
	injected := -injectedBefore
	for _, c := range after {
		injected += c
	}
	if injected == 0 || total == 0 {
		t.Fatalf("the soak injected %d faults and took %d rebuilds: the streams were never soaked", injected, total)
	}
	t.Logf("%d faults injected, %d rebuilds", injected, total)
}

// A token reply of the wrong length, or with an id outside the vocabulary,
// is an error naming the rank — on both the prefill and the decode path —
// never a panic in the coordinator.
func TestTokenRepliesCheckEveryRank(t *testing.T) {
	const vocab = 5
	lens := []int{5, 1, 4}
	plan, err := sharding.NewBatchShard(lens, 2)
	if err != nil {
		t.Fatal(err)
	}
	prefillReplies := func() []*wire.PrefillResult {
		res := make([]*wire.PrefillResult, plan.N)
		for r := range res {
			res[r] = &wire.PrefillResult{}
		}
		for i, T := range lens {
			r, _ := plan.Locate(i, T-1)
			res[r].IDs = append(res[r].IDs, int32(i+1)) // sequence i samples i+1
		}
		return res
	}
	out := make([]int, len(lens))
	if err := prefillIDs(plan, prefillReplies(), vocab, out); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out) != "[1 2 3]" {
		t.Fatalf("prefill ids read as %v, want [1 2 3]", out)
	}
	cmd := &wire.DecodeCmd{Seqs: []int{4, 5, 6}, Tokens: []int{0, 0, 0}, Pos: []int{9, 9, 9}, Owners: []int{1, 0, 1}}
	var own decodeOwners
	own.assign(cmd, 2)
	decodeReplies := func() []*wire.DecodeResult {
		return []*wire.DecodeResult{{IDs: []int32{4}}, {IDs: []int32{2, 3}}}
	}
	if err := decodeIDs(&own, decodeReplies(), vocab, out); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out) != "[2 4 3]" {
		t.Fatalf("decode ids read as %v, want [2 4 3]", out)
	}
	// Both ranks hold sampled rows in the prefill plan (rank 0 two, rank 1
	// one) and own decode rows (rank 0 one, rank 1 two), so every edit below
	// makes a reply malformed.
	type edit struct {
		name string
		ids  func(p, d [][]int32) // edits rank r's ids through p[r] / d[r]
		rank int
		msg  string
	}
	for _, bad := range []edit{
		{"short", func(p, d [][]int32) { p[1], d[1] = p[1][:0], d[1][:1] }, 1, "token ids for"},
		{"long", func(p, d [][]int32) { p[0], d[0] = append(p[0], 1), append(d[0], 1) }, 0, "token ids for"},
		{"none", func(p, d [][]int32) { p[0], d[0] = nil, nil }, 0, "returned 0 token ids for"},
		{"negative", func(p, d [][]int32) { p[1][0], d[1][1] = -1, -1 }, 1, "outside vocab"},
		{"past the vocabulary", func(p, d [][]int32) { p[0][1], d[0][0] = vocab, vocab }, 0, "outside vocab"},
	} {
		pre, dec := prefillReplies(), decodeReplies()
		p := [][]int32{pre[0].IDs, pre[1].IDs}
		d := [][]int32{dec[0].IDs, dec[1].IDs}
		bad.ids(p, d)
		for r := range p {
			pre[r].IDs, dec[r].IDs = p[r], d[r]
		}
		want := fmt.Sprintf("rank %d returned", bad.rank)
		if err := prefillIDs(plan, pre, vocab, out); err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), bad.msg) {
			t.Errorf("%s prefill reply from rank %d: got error %v", bad.name, bad.rank, err)
		}
		if err := decodeIDs(&own, dec, vocab, out); err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), bad.msg) {
			t.Errorf("%s decode reply from rank %d: got error %v", bad.name, bad.rank, err)
		}
	}
}
