package transformer

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/transport"
	"repro/internal/comm/wire"
	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/sharding"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Cluster executes the transformer across N context-parallel ranks: tokens
// are load-balance sharded, all non-attention computation runs locally on
// each rank's shard (CP keeps linear layers communication-free by sharding
// the token dimension), and every layer's attention runs the ring
// algorithms against per-layer per-rank persistent KV caches. Weights are
// replicated on every rank, as in the paper.
//
// A Cluster is a coordinator and nothing else: it validates, resolves every
// derived quantity (positions, owners, variants) into a command, broadcasts
// the command over its plane, and assembles the per-rank replies. Every rank
// is a rankEngine answering rankEngine.handle, whether NewCluster put it on
// a goroutine over the in-memory mailbox transport or ConnectCluster found
// it in a cprank worker process on a TCP mesh (plane.go, remote.go) — there
// is no second way to reach a rank. Engines are pure functions of the
// command stream and the wire codec moves floats by exact bit pattern, so
// both homes produce bit-identical logits and decode streams.
type Cluster struct {
	W *Weights

	n     int
	plane plane

	kvCapacity int

	// rec is the cluster's trace recorder (nil = tracing off). In-process
	// engines record into it directly; distributed workers stage locally and
	// every Telemetry drains their deltas into it over the control plane.
	rec *trace.Recorder

	// dial stands up the plane of a given incarnation — what NewCluster or
	// ConnectCluster did once and a fault-recovery Rebuild repeats — and
	// reports the epoch it joined. events is the stable failure-event
	// fan-in — it survives rebuilds, so a watcher never has to resubscribe.
	// The pump from the current incarnation's source starts lazily on the
	// first Failures call (eventsMu guards pumping/eventSrc, since watchers
	// subscribe from their own goroutine): a cluster nobody watches spawns
	// no pump, and an in-process plane's rank goroutines end with the plane,
	// so Close-less construction stays leak-free.
	dial     func(epoch uint64) (plane, uint64, error)
	epoch    uint64
	events   chan transport.FailureEvent
	eventsMu sync.Mutex
	eventSrc <-chan transport.FailureEvent
	srcEpoch uint64
	pumping  bool

	seqLens map[int]int
	// decodeSteps counts completed decode steps per sequence. Owner rotation
	// is per-sequence rather than per-cluster so that a sequence's KV lands
	// on the same ranks whether it decodes alone or fused into a batch —
	// the property that makes batched serving bit-identical to the serial
	// single-session path.
	decodeSteps map[int]int
	// owners is the current decode command's token assignment, refilled per
	// step (the Cluster, like every engine, serves one command at a time).
	owners decodeOwners
	// next is what DecodeNext returns: the step's token ids in batch order,
	// refilled in place by the next DecodeNext.
	next []int
	// The decode step's command, the batch's duplicate check and both hot
	// commands' reply lists are refilled in place too: a rank reads a
	// command only while bcast runs, and the replies are read before the
	// next command goes out.
	dcmd      wire.DecodeCmd
	inBatch   map[int]bool
	decodeRes []*wire.DecodeResult
	prefRes   []*wire.PrefillResult
	// The prefill command, its lengths and plan, rebuilt in place per
	// command: prefillCmd's callers read the plan before they send the next
	// one. nextSeq and nextToks are PrefillNext's one-sequence batch.
	pcmd      wire.PrefillCmd
	lens      []int
	plan      sharding.BatchShard
	nextSeq   [1]int
	nextToks  [1][]int
	prefixSeq uint64
}

// ClusterOption configures a Cluster at construction time.
type ClusterOption func(*clusterOpts)

type clusterOpts struct {
	commOpts   []comm.Option
	kvCapacity int
	rec        *trace.Recorder
}

// WithTrace attaches a trace recorder: ring sweeps record per-phase timings
// and spans into it on every rank. Tracing observes wall clocks only — it
// cannot change a single output float; the engine's exact-equality tests
// pin that down.
func WithTrace(rec *trace.Recorder) ClusterOption {
	return func(o *clusterOpts) { o.rec = rec }
}

// WithRecvTimeout sets the receive deadline of the cluster's comm.World, for
// soak tests and slow CI machines that outlast comm.DefaultRecvTimeout.
func WithRecvTimeout(d time.Duration) ClusterOption {
	return func(o *clusterOpts) {
		o.commOpts = append(o.commOpts, comm.WithRecvTimeout(d))
	}
}

// WithKVCapacity caps each rank's KV at the given token count — the
// simulated equivalent of each rank's HBM budget; every layer's cache holds
// the same rows, so each gets the same cap. Prefill and
// decode precheck the cap before entering a ring and fail with a
// CapacityError naming the sequences that do not fit, so a capacity fault
// never strands peer ranks mid-ring or leaves partial KV behind.
func WithKVCapacity(tokens int) ClusterOption {
	return func(o *clusterOpts) { o.kvCapacity = tokens }
}

// NewCluster builds an in-process N-rank execution of the given weights.
func NewCluster(w *Weights, ranks int, opts ...ClusterOption) (*Cluster, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("transformer: non-positive rank count %d", ranks)
	}
	var co clusterOpts
	for _, opt := range opts {
		opt(&co)
	}
	return newCluster(w, ranks, co.kvCapacity, co.rec, 1, func(epoch uint64) (plane, uint64, error) {
		p, err := newMemPlane(w, ranks, co, epoch)
		if err != nil {
			return nil, 0, err
		}
		return p, epoch, nil
	})
}

// newCluster dials the first incarnation and wraps it in a coordinator.
func newCluster(w *Weights, n, kvCapacity int, rec *trace.Recorder, epoch uint64, dial func(uint64) (plane, uint64, error)) (*Cluster, error) {
	p, epoch, err := dial(epoch)
	if err != nil {
		return nil, err
	}
	// The process counters start at zero on a recorder (a nil one keeps
	// none), so a scrape tells "none counted" from "no series".
	for _, pc := range processCounters {
		rec.CounterSeries(pc.name, pc.labels...)
	}
	c := &Cluster{
		W:           w,
		n:           n,
		plane:       p,
		dial:        dial,
		epoch:       epoch,
		kvCapacity:  kvCapacity,
		rec:         rec,
		seqLens:     make(map[int]int),
		decodeSteps: make(map[int]int),
		inBatch:     make(map[int]bool),
		events:      make(chan transport.FailureEvent, n+2),
	}
	c.setEventSource(p.failures(), epoch)
	return c, nil
}

// collect broadcasts one command and returns every rank's reply as a T. The
// lowest-ranked engine error wins, named by rank.
func collect[T any](c *Cluster, cmd any) ([]T, error) { return collectInto[T](c, cmd, nil) }

// collectInto is collect into out, grown in place: the prefill and decode
// commands keep one reply list each, since their replies are read before the
// next command goes out.
func collectInto[T any](c *Cluster, cmd any, out []T) ([]T, error) {
	replies, err := c.plane.bcast(cmd)
	if err != nil {
		return nil, err
	}
	out = tensor.Grown(out, len(replies))
	for r, v := range replies {
		if msg := wire.ErrOf(v); msg != "" {
			return nil, fmt.Errorf("rank %d: %s", r, msg)
		}
		res, ok := v.(T)
		if !ok {
			return nil, fmt.Errorf("transformer: rank %d answered %T with %T", r, cmd, v)
		}
		out[r] = res
	}
	return out, nil
}

// CapacityError reports the batch sequences whose KV append would exceed a
// rank's cache capacity. It is returned before any ring pass or cache
// mutation, so the caller can shed exactly the offending sequences and
// retry the rest — the batch members that fit were never touched.
type CapacityError struct {
	Seqs []int
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("transformer: KV capacity exhausted for sequences %v", e.Seqs)
}

// Ranks returns the CP group size.
func (c *Cluster) Ranks() int { return c.n }

// FailLink injects a directed link fault into an in-process cluster's
// transport (the chaos hook recovery tests drive; mirrors
// comm.World.FailLink and surfaces on Failures). No-op on a distributed
// cluster — kill the worker process instead.
//
//cplint:allow testonly TestRecoveryInProcessFaultInjection injects the link fault that forces a rebuild
func (c *Cluster) FailLink(src, dst int) {
	if p, ok := c.plane.(*memPlane); ok {
		p.world.FailLink(src, dst)
	}
}

// Recorder returns the cluster's trace recorder (nil when tracing is off).
func (c *Cluster) Recorder() *trace.Recorder { return c.rec }

// SyncTrace pulls every worker's staged spans and series deltas into the
// cluster's recorder: Telemetry with the snapshot discarded.
func (c *Cluster) SyncTrace() error {
	_, err := c.Telemetry()
	return err
}

// SeqLen returns the cached length of a sequence.
func (c *Cluster) SeqLen(seq int) int { return c.seqLens[seq] }

// Close releases the cluster's transport resources. For a distributed
// cluster it sends every worker a shutdown command and hangs up the control
// plane; in-process clusters close their mailbox transport (stopping the
// failure-event pump). Closing twice is safe.
func (c *Cluster) Close() error { return c.plane.close() }

// Telemetry is a consistent cross-rank snapshot of the cluster's observable
// state: per-rank KV occupancy, assembled-KV copy counters, comm accounting
// by collective kind, and per-directed-link traffic (modeled bytes always;
// wire frames/bytes when a real transport moved them).
type Telemetry struct {
	Transport string
	RankKV    []int
	Assembly  ring.BlockCacheStats
	Comm      comm.Stats
	Links     []wire.LinkStat
}

// Telemetry snapshots the cluster and merges every worker's staged spans and
// series deltas into the cluster's recorder (in-process engines record into
// it directly and send none), then follows this process's counters into it:
// the recorder's integrity, chaos and kernel counters then cover every
// process of the cluster (RecordedCounters). It is a command like any other:
// callers must not race it against an in-flight prefill or decode (the
// serving layer reads it under its cluster lock), and on a distributed
// cluster it is a control-plane round trip, whose failure poisons the plane.
func (c *Cluster) Telemetry() (Telemetry, error) {
	var tel Telemetry
	c.plane.local(&tel)
	results, err := collect[*wire.StatsResult](c, &wire.StatsCmd{})
	if err != nil {
		return Telemetry{}, err
	}
	tel.RankKV = make([]int, c.n)
	tel.Comm = comm.Stats{Messages: map[comm.Kind]int64{}, Bytes: map[comm.Kind]float64{}}
	for r, res := range results {
		c.rec.MergeSpans(res.Spans)
		c.rec.MergeSeries(res.Series)
		tel.RankKV[r] = res.CacheTokens
		if len(res.Assembly) == 5 {
			tel.Assembly.Add(ring.BlockCacheStats{
				Rebuilds: res.Assembly[0], RebuildRows: res.Assembly[1],
				Appends: res.Assembly[2], AppendedRows: res.Assembly[3], Reuses: res.Assembly[4],
			})
		}
		for i, k := range res.Kinds {
			tel.Comm.Messages[comm.Kind(k)] += res.Msgs[i]
			tel.Comm.Bytes[comm.Kind(k)] += res.Bytes[i]
		}
		// A rank reports its own send-side accounting and every link its
		// world knows; keep each link from its sender's snapshot so no
		// direction is counted twice.
		for _, l := range res.Links {
			if l.Src == r {
				tel.Links = append(tel.Links, l)
			}
		}
	}
	processFollower.follow(c.rec)
	return tel, nil
}

// PrefillNext is PrefillLast for a greedy caller: the rank holding the last
// position samples it with Argmax and returns the token id alone, so no
// logits row leaves the rank. The id is Argmax of the row PrefillLast would
// have returned, and every KV row lands where Prefill puts it.
func (c *Cluster) PrefillNext(seq int, tokens []int, variant model.Variant) (int, error) {
	c.nextSeq[0], c.nextToks[0] = seq, tokens
	plan, results, err := c.prefillCmd(c.nextSeq[:], c.nextToks[:], variant, wire.ReplyToken)
	c.nextToks[0] = nil // the caller's prompt is not the Cluster's to keep
	if err != nil {
		return 0, err
	}
	var next [1]int
	if err := prefillIDs(plan, results, c.W.Cfg.Model.VocabSize, next[:]); err != nil {
		return 0, err
	}
	return next[0], nil
}

// prefillCmd validates a fused prefill, broadcasts it with the given reply
// mode and returns the plan it ran on with every rank's reply. The plan is
// the Cluster's, valid until the next prefill command.
func (c *Cluster) prefillCmd(seqIDs []int, tokens [][]int, variant model.Variant, reply wire.Reply) (*sharding.BatchShard, []*wire.PrefillResult, error) {
	if len(seqIDs) == 0 || len(seqIDs) != len(tokens) {
		return nil, nil, fmt.Errorf("transformer: %d seq ids with %d token lists", len(seqIDs), len(tokens))
	}
	m := c.W.Cfg.Model
	c.lens = tensor.Grown(c.lens, len(seqIDs))
	lens := c.lens
	seen := c.inBatch
	clear(seen)
	for i, toks := range tokens {
		if len(toks) == 0 {
			return nil, nil, fmt.Errorf("transformer: empty prefill for sequence %d", seqIDs[i])
		}
		if seqIDs[i] < 0 {
			// Reject up front: the ring layer treats negative ids as
			// padding markers, and an error surfacing on one rank mid-ring
			// would leave its peers waiting for the receive timeout.
			return nil, nil, fmt.Errorf("transformer: negative sequence id %d", seqIDs[i])
		}
		if seen[seqIDs[i]] {
			return nil, nil, fmt.Errorf("transformer: duplicate sequence %d in batch", seqIDs[i])
		}
		seen[seqIDs[i]] = true
		lens[i] = len(toks)
		// Validate up front: an error surfacing on one rank mid-ring would
		// leave its peers waiting for the receive timeout.
		for pos, id := range toks {
			if id < 0 || id >= m.VocabSize {
				return nil, nil, fmt.Errorf("transformer: token %d at position %d of sequence %d outside vocab %d",
					id, pos, seqIDs[i], m.VocabSize)
			}
		}
	}
	plan := &c.plan
	if err := plan.Reset(lens, c.n); err != nil {
		return nil, nil, err
	}
	cmd := &c.pcmd
	cmd.P = tensor.Grown(cmd.P, len(seqIDs))
	p := cmd.P
	for i, id := range seqIDs {
		p[i] = c.seqLens[id]
	}
	if variant == model.Auto {
		// Equation 1 on the batch's aggregate miss rate: chunked serving
		// calls this once per chunk, so the choice adapts per chunk as the
		// cached prefix grows. The inputs are pure functions of absolute
		// position under canonical chunking, which keeps warm (prefix-cache
		// seeded) prefills on the same variant schedule as a cold replay —
		// the exact-equality guarantee depends on it.
		T, P := 0, 0
		for i := range lens {
			T += lens[i]
			P += p[i]
		}
		variant = model.ChooseVariant(m, T, P)
	}
	if c.kvCapacity > 0 {
		if err := c.checkCapacity(seqIDs, prefillNeed(plan, len(seqIDs))); err != nil {
			return nil, nil, err
		}
	}
	cmd.Seqs, cmd.Tokens, cmd.Variant, cmd.Reply = seqIDs, tokens, int(variant), reply
	results, err := collectInto(c, cmd, c.prefRes)
	// The ranks are done with the command: keep its P, not the caller's
	// lists.
	cmd.Seqs, cmd.Tokens = nil, nil
	if err != nil {
		return nil, nil, err
	}
	c.prefRes = results
	// The ranks have appended every row by now, whatever their replies hold.
	for i, id := range seqIDs {
		c.seqLens[id] += lens[i]
	}
	return plan, results, nil
}

// sampledRows counts, per rank, the rows a prefill samples — each
// sequence's last new position — that the plan puts on it, into want's
// storage (a caller's stack array covers every world up to its length).
func sampledRows(plan *sharding.BatchShard, want []int) []int {
	want = tensor.Grown(want, plan.N)
	clear(want)
	for i, T := range plan.SeqLens {
		r, _ := plan.Locate(i, T-1)
		want[r]++
	}
	return want
}

// prefillIDs reads a token-mode prefill's replies into out, one id per
// sequence. Rank r must answer with exactly one id per sampled row the plan
// puts on it, in sequence order, each inside the vocabulary; any other reply
// is an error naming the rank, never a panic.
func prefillIDs(plan *sharding.BatchShard, results []*wire.PrefillResult, vocab int, out []int) error {
	var counts [8]int
	left := sampledRows(plan, counts[:])
	for r, res := range results {
		if len(res.IDs) != left[r] {
			return fmt.Errorf("transformer: rank %d returned %d token ids for %d sampled rows", r, len(res.IDs), left[r])
		}
	}
	for i, T := range plan.SeqLens {
		// A rank's sampled rows come in sequence order: its next one is
		// the first of the left[r] it has not handed out.
		r, _ := plan.Locate(i, T-1)
		id, err := checkID(r, results[r].IDs[len(results[r].IDs)-left[r]], vocab)
		if err != nil {
			return err
		}
		out[i] = id
		left[r]--
	}
	return nil
}

// checkID is a token id rank r sampled, or an error naming the rank when it
// falls outside the vocabulary.
func checkID(r int, id int32, vocab int) (int, error) {
	if id < 0 || int(id) >= vocab {
		return 0, fmt.Errorf("transformer: rank %d returned token id %d outside vocab %d", r, id, vocab)
	}
	return int(id), nil
}

// prefillNeed counts, per rank, the KV rows each batch sequence of a prefill
// appends there: need[r][i] is the plan's non-padding slots of sequence i on
// rank r.
func prefillNeed(plan *sharding.BatchShard, seqs int) [][]int {
	need := make([][]int, plan.N)
	for r := range need {
		need[r] = make([]int, seqs)
		lp := plan.LocalPositions(r)
		for slot, s := range plan.LocalSeqs(r) {
			if lp[slot] != sharding.Pad {
				need[r][s]++
			}
		}
	}
	return need
}

// checkCapacity runs the KV capacity precheck of a prefill or decode command
// before it reaches a rank: it asks every rank for its free rows and the
// batch's copy-on-write overheads, then admits the sequences with admit. The
// command stream is single-threaded, so the answers cannot go stale between
// the check and the ring pass. need[r][i] is the rows batch sequence i
// appends on rank r.
func (c *Cluster) checkCapacity(seqIDs []int, need [][]int) error {
	results, err := collect[*wire.CapResult](c, &wire.CapQueryCmd{Seqs: seqIDs})
	if err != nil {
		return err
	}
	avail := make([]int, c.n)
	overhead := make([][]int, c.n)
	for r, res := range results {
		if len(res.Overhead) != len(seqIDs) {
			return fmt.Errorf("transformer: rank %d returned %d capacity overheads for %d sequences", r, len(res.Overhead), len(seqIDs))
		}
		avail[r], overhead[r] = res.Avail, res.Overhead
	}
	return admit(seqIDs, avail, overhead, need)
}

// admit is the KV admission rule, one greedy for prefill and decode: the
// sequences are admitted in batch order, and sequence i fits when, on every
// rank r it appends on, need[r][i] plus its copy-on-write overhead[r][i] is
// at most what avail[r] has left after the sequences admitted before it. A
// rank charged no rows appends nothing and clones nothing, so it pays no
// overhead. The ones that do not fit come back in a CapacityError, in batch
// order, before any cache is mutated, so a capacity fault sheds exactly them
// instead of poisoning the batch mid-ring. avail is consumed.
func admit(seqIDs, avail []int, overhead, need [][]int) error {
	charge := func(r, i int) int {
		if need[r][i] == 0 {
			return 0
		}
		return need[r][i] + overhead[r][i]
	}
	var offending []int
	for i, id := range seqIDs {
		fits := true
		for r := range avail {
			fits = fits && charge(r, i) <= avail[r]
		}
		if !fits {
			offending = append(offending, id)
			continue
		}
		for r := range avail {
			avail[r] -= charge(r, i)
		}
	}
	if len(offending) > 0 {
		return &CapacityError{Seqs: offending}
	}
	return nil
}

// DecodeNext is DecodeBatch for a greedy caller: each owner rank samples its
// rows with Argmax and returns their token ids alone, so no logits row
// leaves a rank. Entry i is Argmax of the row DecodeBatch would have
// returned for it. The slice is the Cluster's own, reused by the next
// DecodeNext: a served step allocates no logits buffer.
func (c *Cluster) DecodeNext(seqs []int, tokens []int) ([]int, error) {
	results, err := c.decode(seqs, tokens, wire.ReplyToken)
	if err != nil {
		return nil, err
	}
	c.next = tensor.Grown(c.next, len(seqs))
	if err := decodeIDs(&c.owners, results, c.W.Cfg.Model.VocabSize, c.next); err != nil {
		return nil, err
	}
	return c.next, nil
}

// decodeIDs reads a token-mode decode step's replies into out in batch
// order. Rank r must answer with exactly one id per row it owns (o.rows[r]),
// each inside the vocabulary; any other reply is an error naming the rank,
// never a panic.
func decodeIDs(o *decodeOwners, results []*wire.DecodeResult, vocab int, out []int) error {
	for r, rows := range o.rows {
		ids := results[r].IDs
		if len(ids) != len(rows) {
			return fmt.Errorf("transformer: rank %d returned %d token ids for %d owned rows", r, len(ids), len(rows))
		}
		for j, row := range rows {
			id, err := checkID(r, ids[j], vocab)
			if err != nil {
				return err
			}
			out[row] = id
		}
	}
	return nil
}

// decode validates one fused decode step, resolves its owners and
// positions, broadcasts it with the given reply mode and returns every
// rank's reply; c.owners holds the step's assignment.
func (c *Cluster) decode(seqs []int, tokens []int, reply wire.Reply) ([]*wire.DecodeResult, error) {
	b := len(seqs)
	if b == 0 || b != len(tokens) {
		return nil, fmt.Errorf("transformer: %d sequences with %d decode tokens", b, len(tokens))
	}
	m := c.W.Cfg.Model
	seen := c.inBatch
	clear(seen)
	for i, seq := range seqs {
		if seq < 0 {
			return nil, fmt.Errorf("transformer: negative sequence id %d", seq)
		}
		if _, ok := c.seqLens[seq]; !ok {
			return nil, fmt.Errorf("transformer: decode for unknown sequence %d", seq)
		}
		if seen[seq] {
			return nil, fmt.Errorf("transformer: duplicate sequence %d in decode batch", seq)
		}
		seen[seq] = true
		if tokens[i] < 0 || tokens[i] >= m.VocabSize {
			return nil, fmt.Errorf("transformer: decode token %d outside vocab %d", tokens[i], m.VocabSize)
		}
	}

	// Resolve each batch entry's owner rank and global position on the
	// coordinator — pure functions of (sequence, per-sequence step) — and
	// ship them in the command so every rank derives identical ownership.
	cmd := &c.dcmd
	*cmd = wire.DecodeCmd{Seqs: seqs, Tokens: tokens,
		Pos: tensor.Grown(cmd.Pos, b), Owners: tensor.Grown(cmd.Owners, b), Reply: reply}
	for i, seq := range seqs {
		// Owner depends only on (seq, per-seq step) — never on batch
		// composition — so fused and serial execution place KV
		// identically, while distinct sequences at equal step counts
		// still spread across ranks instead of piling onto one.
		cmd.Pos[i] = c.seqLens[seq]
		cmd.Owners[i] = sharding.DecodeOwner(seqOwnerOffset(seq), c.decodeSteps[seq], c.n)
	}
	c.owners.assign(cmd, c.n)
	if c.kvCapacity > 0 {
		// Each sequence appends one row, on its owner rank.
		need := make([][]int, c.n)
		for r := range need {
			need[r] = make([]int, b)
		}
		for i, r := range cmd.Owners {
			need[r][i] = 1
		}
		if err := c.checkCapacity(seqs, need); err != nil {
			return nil, err
		}
	}
	results, err := collectInto(c, cmd, c.decodeRes)
	if err != nil {
		return nil, err
	}
	c.decodeRes = results
	// The ranks have appended every sequence's row by now, whatever their
	// replies hold.
	for _, seq := range seqs {
		c.seqLens[seq]++
		c.decodeSteps[seq]++
	}
	return results, nil
}

// seqOwnerOffset decorrelates owner rotation across sequence ids with a
// fixed integer hash (MurmurHash3's fmix64 finalizer). Client-chosen session
// ids are often congruent mod N (100, 104, 108 on 4 ranks would otherwise
// share one owner forever); hashing breaks persistent collisions while
// keeping the offset a pure function of the id, which the bit-identity
// guarantee needs.
func seqOwnerOffset(seq int) int {
	x := uint64(seq)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x & 0x7fffffff)
}

// DecodeOwnerRank returns the rank that owns (appends the KV of, and runs
// the head for) a sequence's decode token at the given per-sequence step, on
// an n-rank cluster. Exposed so schedulers and tests can reason about
// per-rank KV pressure without replaying the hash.
func DecodeOwnerRank(seq, step, n int) int {
	return sharding.DecodeOwner(seqOwnerOffset(seq), step, n)
}

// Drop evicts a sequence from every rank's per-layer cache and forgets its
// decode rotation state, freeing the admission slot it occupied. Eviction
// has no caller-visible error path: a partial broadcast could leave the
// sequence resident on some ranks only, which is why a failed bcast poisons a
// distributed plane — the skewed state is never reached again, and the next
// prefill or decode fails with the cause.
func (c *Cluster) Drop(seq int) {
	_, _ = collect[*wire.Ack](c, &wire.DropCmd{Seq: seq})
	delete(c.seqLens, seq)
	delete(c.decodeSteps, seq)
}

// PrefixKV is a refcounted handle on the sharded KV of a sequence's token
// prefix: one kvcache.Span per rank per layer (held rank-side), pinning the
// pages a canonical prefill of that prefix produced. The handle keeps the KV
// alive after the donor sequence is dropped and can seed any number of later
// sequences via AdoptPrefix. It satisfies prefixcache.Entry, so the serving
// layer stores it directly in the prefix tree.
type PrefixKV struct {
	tokens   int
	id       uint64
	c        *Cluster
	epoch    uint64 // incarnation whose rank registries hold the spans
	released bool
}

// Tokens returns the prefix length in tokens.
func (p *PrefixKV) Tokens() int { return p.tokens }

// Release frees the handle's page references on every rank and layer.
// Releasing twice is a no-op; pages shared with live sequences or other
// handles survive. A handle from a pre-rebuild epoch releases nothing: the
// registries that held its spans died with the old incarnation, and a
// release broadcast would be wasted round trips (or worse, would race the
// new epoch's ids). Nor does the zero PrefixKV, which pins nothing.
func (p *PrefixKV) Release() {
	if p == nil || p.released {
		return
	}
	p.released = true
	if p.c != nil && p.epoch == p.c.epoch {
		p.c.releasePrefix(p.id)
	}
}

func (c *Cluster) releasePrefix(id uint64) {
	_, _ = collect[*wire.Ack](c, &wire.ReleasePrefixCmd{ID: id})
}

// DetachPrefix pins the first upTo tokens of a resident sequence into a
// PrefixKV without copying. upTo must be a boundary the sequence prefilled
// across in canonical order — every rank's rows below it must form an
// append-order prefix, every layer must hold the same rows, and the ranks'
// counts must sum to upTo — or the adopted KV could not replay a cold
// prefill's placement. The caller may Drop the sequence afterwards; the
// handle keeps the pages alive.
func (c *Cluster) DetachPrefix(seq, upTo int) (*PrefixKV, error) {
	total, ok := c.seqLens[seq]
	if !ok {
		return nil, fmt.Errorf("transformer: detach for unknown sequence %d", seq)
	}
	if upTo <= 0 || upTo > total {
		return nil, fmt.Errorf("transformer: detach bound %d outside sequence %d's length %d", upTo, seq, total)
	}
	c.prefixSeq++
	id := c.prefixSeq
	// A rank that failed pinned nothing; the others must let go.
	perRank, err := collect[*wire.DetachResult](c, &wire.DetachCmd{Seq: seq, UpTo: upTo, ID: id})
	if err != nil {
		c.releasePrefix(id)
		return nil, err
	}
	n := 0
	for _, res := range perRank {
		n += res.Tokens
	}
	if n != upTo {
		c.releasePrefix(id)
		return nil, fmt.Errorf("transformer: sequence %d holds %d of %d tokens below the detach bound", seq, n, upTo)
	}
	return &PrefixKV{tokens: upTo, id: id, c: c, epoch: c.epoch}, nil
}

// AdoptPrefix seeds a new sequence from a detached prefix by sharing its
// pages on every rank and layer (copy-on-write on the first append past a
// shared tail). The sequence continues from position pre.Tokens() exactly as
// if it had prefilled the prefix itself.
func (c *Cluster) AdoptPrefix(seq int, pre *PrefixKV) error {
	if seq < 0 {
		return fmt.Errorf("transformer: negative sequence id %d", seq)
	}
	if pre == nil || pre.released {
		return fmt.Errorf("transformer: adopting a nil or released prefix")
	}
	if pre.c != c {
		return fmt.Errorf("transformer: adopting a prefix detached from a different cluster")
	}
	if pre.epoch != c.epoch {
		return fmt.Errorf("transformer: adopting a prefix from stale epoch %d (cluster is at %d)", pre.epoch, c.epoch)
	}
	if _, ok := c.seqLens[seq]; ok {
		return fmt.Errorf("transformer: sequence %d already resident", seq)
	}
	if _, err := collect[*wire.Ack](c, &wire.AdoptCmd{Seq: seq, ID: pre.id}); err != nil {
		c.Drop(seq)
		return err
	}
	c.seqLens[seq] = pre.tokens
	return nil
}
