// Package trace is the engine's observability layer: distributed spans,
// streaming latency histograms, and labeled counters/gauges, exported as
// Chrome-trace JSON, deterministic JSONL, and Prometheus text exposition.
//
// It backs the per-phase breakdowns the paper reports (SendRecv / ATTN /
// All2All in Tables 5 and 8): every ring sweep records its compute, comm,
// and All2All time per rank, and the serving layer records TTFT / ITL /
// step-latency histograms plus per-request spans (queue wait, prefill
// chunks, decode iterations, prefix adopt/detach, recovery replay).
//
// Recorders are safe for concurrent use: every CP rank goroutine records
// into the same recorder during an in-process distributed call. In
// multi-process mode each worker records into its own recorder and the
// coordinator drains deltas over the wire (wire.TraceCmd / TraceResult),
// merging them into its cumulative store — so counters stay monotonic
// across epochs and histogram merge is plain bucket addition.
//
// Every recording entry point is nil-safe on a nil *Recorder: tracing off
// is a nil handle, costs no time.Now() calls, and cannot perturb compute.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed activity on one rank. Start is Unix nanoseconds; Index
// is a per-(rank, epoch) monotonic sequence number assigned at record time,
// so sorting by (Epoch, Rank, Index) reproduces each rank's program order
// exactly — the deterministic export ordering.
type Span struct {
	Name  string           `json:"name"`
	Cat   string           `json:"cat,omitempty"`
	Rank  int              `json:"rank"`
	Seq   int              `json:"seq"`
	Epoch uint64           `json:"epoch"`
	Index uint64           `json:"index"`
	Start int64            `json:"start_ns"`
	Dur   int64            `json:"dur_ns"`
	Args  map[string]int64 `json:"args,omitempty"`
}

// Arg is one span argument given as a pair rather than a map entry, for a
// caller that records a span on every step (RecordSpanArgs).
type Arg struct {
	Key string
	Val int64
}

// inlineArgs is how many argument values a span's record holds itself.
const inlineArgs = 4

// record is one buffered span in 80 bytes: its shape (name, category and
// argument keys, interned by the recorder), the numbers every span has, and
// its argument values in the shape's key order. A span whose arguments do
// not fit has shape spilledShape and is kept whole in its buffer's spill map.
type record struct {
	shape        int32
	rank         int32
	seq          int64
	epoch, index uint64
	start, dur   int64
	vals         [inlineArgs]int64
}

// spilledShape marks a record whose span is in its buffer's spill map.
const spilledShape = -1

// shape is what the spans recorded alike share: name, category and the
// first n argument keys. The recorder interns each shape once and keeps it
// for good, so a record stores only its id. A shape is comparable, so it
// keys the interning map itself, and built without allocating.
type shape struct {
	name, cat string
	n         int
	keys      [inlineArgs]string
}

// maxShapes bounds the recorder's shape table; a span of a new shape past it
// is spilled. Production records about a dozen shapes.
const maxShapes = 1 << 12

// spilled is a span kept whole: one with more than inlineArgs argument keys,
// a rank past int32, or a new shape once the table is full.
type spilled struct {
	name, cat string
	rank      int
	args      []Arg
}

// argSet collects a span's arguments, its Args map first and then its pairs,
// a key given twice keeping its last value. Up to inlineArgs keys stay in
// the set's own arrays; past that, every argument moves to more.
type argSet struct {
	n    int
	keys [inlineArgs]string
	vals [inlineArgs]int64
	more []Arg
}

func (a *argSet) set(key string, v int64) {
	if a.more != nil {
		for i := range a.more {
			if a.more[i].Key == key {
				a.more[i].Val = v
				return
			}
		}
		a.more = append(a.more, Arg{key, v})
		return
	}
	for i := 0; i < a.n; i++ {
		if a.keys[i] == key {
			a.vals[i] = v
			return
		}
	}
	if a.n < inlineArgs {
		a.keys[a.n], a.vals[a.n] = key, v
		a.n++
		return
	}
	a.more = append(a.list(), Arg{key, v})
}

// list returns the set's arguments as pairs.
func (a *argSet) list() []Arg {
	if a.more != nil {
		return a.more
	}
	out := make([]Arg, a.n)
	for i := range out {
		out[i] = Arg{a.keys[i], a.vals[i]}
	}
	return out
}

// sort orders the inline keys, values alongside, so one key set interns as
// one shape whatever order it was given in.
func (a *argSet) sort() {
	for i := 1; i < a.n; i++ {
		for j := i; j > 0 && a.keys[j] < a.keys[j-1]; j-- {
			a.keys[j], a.keys[j-1] = a.keys[j-1], a.keys[j]
			a.vals[j], a.vals[j-1] = a.vals[j-1], a.vals[j]
		}
	}
}

// spanBlock sizes the blocks the span buffer grows by: it takes a new block
// when its last one is full and never copies what it holds, where one slice
// would be copied whole on every growth.
const spanBlock = 256

// spanBuf is the recorder's span buffer.
type spanBuf struct {
	blocks [][]record
	n      int
	spill  map[int]spilled // by position in the buffer
}

// add buffers rec, and sp as its span when rec is spilled.
func (b *spanBuf) add(rec record, sp spilled) {
	if b.n%spanBlock == 0 {
		b.blocks = append(b.blocks, make([]record, 0, spanBlock))
	}
	if rec.shape == spilledShape {
		if b.spill == nil {
			b.spill = make(map[int]spilled)
		}
		b.spill[b.n] = sp
	}
	last := &b.blocks[len(b.blocks)-1]
	*last = append(*last, rec)
	b.n++
}

// spans returns the buffered spans, arguments as Args, reading shape ids in
// shapes.
func (b *spanBuf) spans(shapes []shape) []Span {
	if b.n == 0 {
		return nil
	}
	out := make([]Span, 0, b.n)
	for bi, blk := range b.blocks {
		for i := range blk {
			rec := &blk[i]
			s := Span{
				Rank: int(rec.rank), Seq: int(rec.seq), Epoch: rec.epoch, Index: rec.index,
				Start: rec.start, Dur: rec.dur,
			}
			if rec.shape == spilledShape {
				sp := b.spill[bi*spanBlock+i]
				s.Name, s.Cat, s.Rank = sp.name, sp.cat, sp.rank
				if len(sp.args) > 0 {
					s.Args = make(map[string]int64, len(sp.args))
					for _, a := range sp.args {
						s.Args[a.Key] = a.Val
					}
				}
			} else {
				sh := &shapes[rec.shape]
				s.Name, s.Cat = sh.name, sh.cat
				if sh.n > 0 {
					s.Args = make(map[string]int64, sh.n)
					for j, k := range sh.keys[:sh.n] {
						s.Args[k] = rec.vals[j]
					}
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// CoordinatorRank tags spans recorded by the coordinator / scheduler rather
// than a CP rank.
const CoordinatorRank = -1

// NoSeq tags spans not attributable to one sequence.
const NoSeq = -1

// Stat aggregates one span name (count / total / max), the summary surface
// String prints.
type Stat struct {
	Count int
	Total time.Duration
	Max   time.Duration
}

// Mean returns the average span duration.
func (s Stat) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// DefaultMaxSpans bounds the in-memory span buffer; past it, new spans are
// dropped and counted in cp_trace_spans_dropped_total.
const DefaultMaxSpans = 1 << 16

type rankKey struct {
	rank  int
	epoch uint64
}

// Recorder accumulates spans, aggregate per-name stats, and labeled metric
// series. The zero value is not usable; call New. A nil *Recorder is a
// valid "tracing off" handle for every recording method.
type Recorder struct {
	mu       sync.Mutex
	maxSpans int
	spans    spanBuf
	shapes   []shape // by id; kept across drains
	shapeID  map[shape]int32
	nextIdx  map[rankKey]uint64
	agg      map[string]Stat
	series   map[string]*Series
	order    []string // series ids in creation order (sorted at export)
	sweeps   map[sweepKey]*sweepSeries
	idle     []*SweepTimer // finished sweep timers, for the next Sweep
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{
		maxSpans: DefaultMaxSpans,
		shapeID:  make(map[shape]int32),
		nextIdx:  make(map[rankKey]uint64),
		agg:      make(map[string]Stat),
		series:   make(map[string]*Series),
		sweeps:   make(map[sweepKey]*sweepSeries),
	}
}

// SetMaxSpans bounds the span buffer (<= 0 keeps the current bound).
func (r *Recorder) SetMaxSpans(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.mu.Lock()
	r.maxSpans = n
	r.mu.Unlock()
}

// RecordSpan appends one span, assigning its per-(rank, epoch) Index. The
// aggregate Stat for s.Name is updated even when the buffer is full.
func (r *Recorder) RecordSpan(s Span) { r.RecordSpanArgs(s) }

// RecordSpanArgs is RecordSpan with arguments given as pairs, which the
// recorder copies into the span's record: a span recorded this way
// allocates no map, and its Args are built only where spans are read. A key
// given twice keeps its last value, as a map would, and a pair overrides the
// same key in s.Args.
func (r *Recorder) RecordSpanArgs(s Span, args ...Arg) {
	if r == nil {
		return
	}
	r.mu.Lock()
	dropCtr := r.recordLocked(s, args)
	r.mu.Unlock()
	if dropCtr != nil {
		dropCtr.Inc(1)
	}
}

// recordLocked buffers one span and returns the dropped-span counter to bump
// when the buffer is full; caller holds r.mu.
func (r *Recorder) recordLocked(s Span, args []Arg) *Series {
	k := rankKey{s.Rank, s.Epoch}
	r.nextIdx[k]++
	s.Index = r.nextIdx[k]
	st := r.agg[s.Name]
	st.Count++
	st.Total += time.Duration(s.Dur)
	if time.Duration(s.Dur) > st.Max {
		st.Max = time.Duration(s.Dur)
	}
	r.agg[s.Name] = st
	if r.spans.n >= r.maxSpans {
		return r.seriesLocked(KindCounter, "cp_trace_spans_dropped_total", L("rank", rankLabel(s.Rank)))
	}
	r.storeLocked(s, args)
	return nil
}

// storeLocked buffers s, its Args map and then args as its arguments, as one
// record; caller holds r.mu.
func (r *Recorder) storeLocked(s Span, args []Arg) {
	var set argSet
	for k, v := range s.Args {
		set.set(k, v)
	}
	for _, a := range args {
		set.set(a.Key, a.Val)
	}
	id := int32(spilledShape)
	if set.more == nil && int(int32(s.Rank)) == s.Rank {
		set.sort()
		id = r.shapeLocked(s.Name, s.Cat, &set)
	}
	rec := record{
		shape: id, rank: int32(s.Rank), seq: int64(s.Seq), epoch: s.Epoch, index: s.Index,
		start: s.Start, dur: s.Dur, vals: set.vals,
	}
	var sp spilled
	if id == spilledShape {
		sp = spilled{name: s.Name, cat: s.Cat, rank: s.Rank, args: set.list()}
	}
	r.spans.add(rec, sp)
}

// shapeLocked returns the id of the shape (name, cat, set's keys), interning
// it on first sight, or spilledShape when the table is full; caller holds
// r.mu. A known shape costs one map lookup and no allocation.
func (r *Recorder) shapeLocked(name, cat string, set *argSet) int32 {
	sh := shape{name: name, cat: cat, n: set.n, keys: set.keys}
	if id, ok := r.shapeID[sh]; ok {
		return id
	}
	if len(r.shapes) >= maxShapes {
		return spilledShape
	}
	id := int32(len(r.shapes))
	r.shapes = append(r.shapes, sh)
	r.shapeID[sh] = id
	return id
}

// Stat returns the aggregate for one span name.
func (r *Recorder) Stat(name string) Stat {
	if r == nil {
		return Stat{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.agg[name]
}

// Names returns all aggregate span names in sorted order.
func (r *Recorder) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.agg))
	for n := range r.agg {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SpanCount returns the number of buffered spans.
func (r *Recorder) SpanCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans.n
}

// String renders a one-line-per-name summary of the aggregate stats,
// useful in examples and CLIs.
func (r *Recorder) String() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, n := range r.Names() {
		s := r.Stat(n)
		fmt.Fprintf(&b, "%-24s count=%-6d total=%-12s mean=%s\n", n, s.Count, s.Total, s.Mean())
	}
	return b.String()
}

// rankLabel renders a rank id as a label value ("coord" for the
// coordinator pseudo-rank).
func rankLabel(rank int) string {
	if rank == CoordinatorRank {
		return "coord"
	}
	return fmt.Sprintf("%d", rank)
}

// --- ring sweep timing -----------------------------------------------------

// SweepTimer accumulates one ring sweep's (one layer pass on one rank)
// per-phase wall time: attention compute, ring SendRecv issue+wait, and the
// trailing All2All — the paper's Table 5/8 axes. Opened per sweep via
// Recorder.Sweep; all methods are nil-safe so the ring hot path stays
// branch-light when tracing is off. The timer belongs to its recorder, which
// hands it to a later sweep once Finish has recorded this one: the sweep must
// not touch it after Finish.
type SweepTimer struct {
	rec       *Recorder
	rank      int
	epoch     uint64
	op        string
	seq       int
	computeNs int64
	commNs    int64
	a2aNs     int64
	hasA2A    bool
	start     time.Time
	series    *sweepSeries
}

// sweepSeries is the four handles every sweep of one (rank, op) observes,
// resolved on that pair's first sweep and kept by the Recorder: resolve
// once, observe many times.
type sweepSeries struct{ compute, comm, a2a, count *Series }

type sweepKey struct {
	rank int
	op   string
}

// Sweep opens a sweep timer for one rank and op ("prefill" or "decode").
// Returns nil (a valid no-op timer) on a nil recorder.
func (r *Recorder) Sweep(rank int, epoch uint64, op string) *SweepTimer {
	if r == nil {
		return nil
	}
	k := sweepKey{rank, op}
	r.mu.Lock()
	h := r.sweeps[k]
	if h == nil {
		rl := rankLabel(rank)
		phase := func(name string) *Series {
			return r.seriesLocked(KindHistogram, "cp_ring_phase_seconds", L("op", op), L("phase", name), L("rank", rl))
		}
		h = &sweepSeries{
			compute: phase("compute"),
			comm:    phase("comm"),
			a2a:     phase("all2all"),
			count:   r.seriesLocked(KindCounter, "cp_ring_sweeps_total", L("op", op), L("rank", rl)),
		}
		r.sweeps[k] = h
	}
	var t *SweepTimer
	if n := len(r.idle); n > 0 {
		t, r.idle = r.idle[n-1], r.idle[:n-1]
	}
	r.mu.Unlock()
	if t == nil {
		t = new(SweepTimer)
	}
	*t = SweepTimer{
		rec: r, rank: rank, epoch: epoch, op: op, seq: NoSeq, series: h,
		start: time.Now(), //cplint:allow determinism sweep wall-clock start, observability only
	}
	return t
}

// Clock returns the current time, or the zero time on a nil timer (so
// callers can write t0 := tr.Clock(); ...; tr.Compute(t0) untraced for
// free).
func (t *SweepTimer) Clock() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now() //cplint:allow determinism phase-timer clock read, observability only
}

// Compute charges the time since t0 to the attention-compute phase.
func (t *SweepTimer) Compute(t0 time.Time) {
	if t == nil {
		return
	}
	t.computeNs += time.Since(t0).Nanoseconds() //cplint:allow determinism phase duration, observability only
}

// Comm charges the time since t0 to the ring SendRecv phase (transfer
// issue and exposed wait both land here, so the sum is comparable across
// the overlapped and synchronous ring paths).
func (t *SweepTimer) Comm(t0 time.Time) {
	if t == nil {
		return
	}
	t.commNs += time.Since(t0).Nanoseconds() //cplint:allow determinism phase duration, observability only
}

// A2A charges the time since t0 to the trailing All2All.
func (t *SweepTimer) A2A(t0 time.Time) {
	if t == nil {
		return
	}
	t.a2aNs += time.Since(t0).Nanoseconds() //cplint:allow determinism phase duration, observability only
	t.hasA2A = true
}

// Finish records the sweep: one observation per phase histogram, the sweep
// counter, and one ring.sweep span carrying the phase breakdown — compute_ns,
// comm_ns and steps, and all2all_ns when the sweep ran an All2All — in its
// record, so the span costs no map until it is read. The timer then goes
// back to its recorder.
func (t *SweepTimer) Finish(steps int) {
	if t == nil {
		return
	}
	t.series.compute.Observe(float64(t.computeNs) / 1e9)
	t.series.comm.Observe(float64(t.commNs) / 1e9)
	if t.hasA2A {
		t.series.a2a.Observe(float64(t.a2aNs) / 1e9)
	}
	t.series.count.Inc(1)
	args := [...]Arg{
		{"compute_ns", t.computeNs},
		{"comm_ns", t.commNs},
		{"steps", int64(steps)},
		{"all2all_ns", t.a2aNs},
	}
	n := len(args) - 1
	if t.hasA2A {
		n++
	}
	s := Span{
		Name: "ring.sweep", Cat: t.op, Rank: t.rank, Seq: t.seq, Epoch: t.epoch,
		Start: t.start.UnixNano(), Dur: time.Since(t.start).Nanoseconds(), //cplint:allow determinism sweep span duration, observability only
	}
	r := t.rec
	r.mu.Lock()
	dropCtr := r.recordLocked(s, args[:n])
	r.idle = append(r.idle, t)
	r.mu.Unlock()
	if dropCtr != nil {
		dropCtr.Inc(1)
	}
}

// --- drain / merge (the wire-shipping surface) -----------------------------

// SeriesSnap is one series' drained delta (or gauge value): the unit the
// coordinator merges after shipping it over a wire.TraceResult.
type SeriesSnap struct {
	Name   string
	Labels []Label
	Kind   Kind
	Value  float64  // counter delta or gauge value
	Count  uint64   // histogram observation count delta
	Sum    float64  // histogram sum delta
	Counts []uint64 // histogram bucket count deltas (len == len(BucketBounds))
}

// Drain atomically removes and returns all buffered spans plus every
// series' delta since the previous drain, resetting counters and histogram
// contents (gauges keep their value — they are levels, not flows). The
// interned span shapes stay, so later spans of a known shape intern
// nothing. Worker recorders are staging buffers: the coordinator's merged
// store is the cumulative source of truth.
func (r *Recorder) Drain() ([]Span, []SeriesSnap) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	staged, shapes := r.spans, r.shapes
	r.spans = spanBuf{}
	ids := append([]string(nil), r.order...)
	series := make([]*Series, len(ids))
	for i, id := range ids {
		series[i] = r.series[id]
	}
	r.mu.Unlock()
	sort.Strings(ids)
	sort.Slice(series, func(i, j int) bool { return series[i].id < series[j].id })
	snaps := make([]SeriesSnap, 0, len(series))
	for _, s := range series {
		snaps = append(snaps, s.drain())
	}
	return staged.spans(shapes), snaps
}

// MergeSpans appends drained spans from another recorder verbatim (their
// Index values are already per-(rank, epoch) and must be preserved for the
// deterministic export ordering).
func (r *Recorder) MergeSpans(spans []Span) {
	if r == nil || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	var droppedBy map[int]int64
	for _, s := range spans {
		if r.spans.n >= r.maxSpans {
			if droppedBy == nil {
				droppedBy = make(map[int]int64)
			}
			droppedBy[s.Rank]++
			continue
		}
		r.storeLocked(s, nil)
		k := rankKey{s.Rank, s.Epoch}
		if s.Index > r.nextIdx[k] {
			r.nextIdx[k] = s.Index
		}
	}
	ranks := make([]int, 0, len(droppedBy))
	for rank := range droppedBy {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks) // fixed series-creation order regardless of map iteration
	drops := make([]*Series, 0, len(ranks))
	counts := make([]int64, 0, len(ranks))
	for _, rank := range ranks {
		drops = append(drops, r.seriesLocked(KindCounter, "cp_trace_spans_dropped_total", L("rank", rankLabel(rank))))
		counts = append(counts, droppedBy[rank])
	}
	r.mu.Unlock()
	for i, s := range drops {
		s.Inc(float64(counts[i]))
	}
}

// MergeSeries folds drained series deltas into this recorder: counters and
// histograms add, gauges take the incoming value. Series are created on
// first sight, so a fresh coordinator can absorb any worker's registry.
func (r *Recorder) MergeSeries(snaps []SeriesSnap) {
	if r == nil {
		return
	}
	for _, sn := range snaps {
		s := r.getSeries(sn.Kind, sn.Name, sn.Labels...)
		s.merge(sn)
	}
}
