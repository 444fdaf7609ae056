// Package attention implements exact grouped-query attention (GQA) together
// with the log-sum-exp bookkeeping that makes ring attention lossless.
//
// Two kernels are provided:
//
//   - GQA: the production kernel. It compiles the position/sequence mask into
//     per-query contiguous KV intervals once per call (see Intervals), then
//     sweeps query blocks — up to eight consecutive query tokens of one KV
//     head share one walk over the K/V tiles, every query head of the group
//     computed against the same widened rows — and fans the independent
//     cells out over the shared worker pool (internal/parallel). Scores and
//     weighted sums accumulate in float64.
//   - Merge: the merge-attention operator (Appendix B, Equation 4) that
//     combines partial attention outputs computed against disjoint KV chunks
//     into the exact attention over the full KV.
//
// Every output cell (query token, head) is a pure function of the query row
// and the ordered list of KV rows the mask admits, with a fixed per-cell
// reduction order. Two consequences the rest of the repo relies on:
// parallel execution is bit-identical to serial at any worker count (cells
// are independent and each is computed identically), and interleaving
// masked-out rows — padding, other sequences' KV — into the key/value
// tensors cannot perturb a single bit.
//
// One kernel serves prefill and decode (gqaBlock; a decode step is the block
// of one query). It reads K and V where they live, as a list of row runs (KV):
// a cache sequence's pages, or one run for a tensor. K and V are cut into
// fixed 32-row tiles of the runs read back to back. Pass one widens
// each K tile the block's masks touch to float64 once — not once per query —
// and scores every query against the rows its intervals admit, keeping each
// (query, tile) chunk of scores and the running per-head max. Pass two walks
// the V tiles the same way and, chunk by chunk, turns the scores into softmax
// weights against the now-final max and folds them into the accumulators at
// once; no separate subtract or exp sweep over a query's whole score stripe
// exists. The block size is a function of the mask's shape alone (the
// largest of 8/4/2/1 queries whose score stripes fit a fixed budget, cut by
// the worker chunk); because a cell's arithmetic does not depend on its
// block, that choice is invisible in the output bits.
//
// The three stages are tile kernels — scoreTile, softmaxTile, pvTile — each a
// portable Go loop that is the oracle plus a vector form on amd64. All obey
// numeric contract v2: every multiply-add is fused, one rounding (math.FMA in
// the oracles, VFMADD231PD in the vector forms). The vector forms compute
// several values per pass — eight K rows scored against one load of the query
// chunk, a head's whole accumulator held in registers across a V tile, four
// exponentials per pass — but each value's arithmetic is the oracle's,
// operation for operation: four fused accumulators combined as
// ((s0+s2)+(s1+s3)) then scaled for a score; expNeg's reduction, Horner chain
// and exponent add for a weight; one fused multiply-add chain in ascending
// row order for every accumulator element. The score stage is bit for bit
// what it was under the unfused contract v1: q and K are float32 values
// widened to float64, so every product is exact and fusing rounds nothing
// differently. On hosts where simd.Available() holds (AVX2 and FMA),
// scoreTile and pvTile take the vector form when the head dim is a multiple
// of four and softmaxTile for every whole quad of in-range scores (see
// exp.go); everything else runs the portable loops. At the AVX-512 tier
// (simd.Active() >= simd.AVX512) three stages have a second vector form,
// eight float64 lanes wide: the score kernel's lanes are the head group —
// eight heads per register, q transposed once per query block, a vertical
// finish — for groups that are a multiple of eight; the PV kernel's lanes
// are columns, four heads per pass, for head dims that are a multiple of
// eight; softmax takes whole octets. Other shapes keep the AVX2 forms. Which
// form runs is therefore invisible in the output bits, and tests check
// exactly that at every tier, head dim, row count, group size and special
// value.
//
// All kernels carry per-(query, head) log-sum-exp (LSE) values so partial
// results can be merged exactly. Masking is expressed through global token
// positions and sequence ids, which is what the load-balanced sharding of
// the paper produces: after sharding, a rank's queries and KV entries are
// non-contiguous slices of the original sequences, so causality must be
// evaluated on original positions rather than local indices.
package attention

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/simd"
	"repro/internal/tensor"
)

// NegInf is the LSE value of a query row that attended to zero keys. Merge
// treats such partials as exact zero weight.
var NegInf = math.Inf(-1)

// Mask describes which KV entries each query may attend to. A query i may
// attend to KV j iff QSeq[i] == KVSeq[j] and KVPos[j] <= QPos[i] and
// KVPos[j] >= 0. Negative KV positions mark padding rows that nothing may
// attend to (the ring algorithms pad per-rank KV to equalize message sizes).
type Mask struct {
	QPos  []int // global position of each query token within its sequence
	QSeq  []int // sequence id of each query token
	KVPos []int // global position of each KV token; negative = padding
	KVSeq []int // sequence id of each KV token
}

// FullCausal returns the mask of a standard single-sequence full prefill:
// T queries at positions 0..T-1 attending causally to T keys.
func FullCausal(T int) Mask {
	return PartialCausal(T, 0)
}

// PartialCausal returns the mask of a single-sequence partial prefill: T new
// queries at positions P..P+T-1 attending to P cached plus T new keys at
// positions 0..P+T-1.
func PartialCausal(T, P int) Mask {
	m := Mask{
		QPos:  make([]int, T),
		QSeq:  make([]int, T),
		KVPos: make([]int, P+T),
		KVSeq: make([]int, P+T),
	}
	for i := 0; i < T; i++ {
		m.QPos[i] = P + i
	}
	for j := 0; j < P+T; j++ {
		m.KVPos[j] = j
	}
	return m
}

// Validate checks that the mask is consistent with the given tensor lengths.
func (m Mask) Validate(qTokens, kvTokens int) error {
	if len(m.QPos) != qTokens || len(m.QSeq) != qTokens {
		return fmt.Errorf("attention: mask has %d/%d query entries, want %d", len(m.QPos), len(m.QSeq), qTokens)
	}
	if len(m.KVPos) != kvTokens || len(m.KVSeq) != kvTokens {
		return fmt.Errorf("attention: mask has %d/%d kv entries, want %d", len(m.KVPos), len(m.KVSeq), kvTokens)
	}
	return nil
}

// Output is a partial or complete attention result: the output embeddings
// plus the per-(query, head) log-sum-exp needed to merge partials exactly.
type Output struct {
	O   *tensor.Tensor // [T, NH, DH]
	LSE []float64      // len T*NH, index t*NH+h; NegInf where nothing attended
}

// NewOutput allocates a zero output with NegInf LSEs (the identity element
// of Merge).
func NewOutput(tokens, heads, dim int) *Output {
	lse := make([]float64, tokens*heads)
	for i := range lse {
		lse[i] = NegInf
	}
	return &Output{O: tensor.New(tokens, heads, dim), LSE: lse}
}

// Reset restores the zero/NegInf identity so the output can be reused as a
// kernel destination. The ring sweeps recycle one partial Output per rank
// this way instead of allocating one per ring step.
func (o *Output) Reset() {
	clear(o.O.Data)
	for i := range o.LSE {
		o.LSE[i] = NegInf
	}
}

// Fit reshapes o to [tokens, heads, dim] over its own storage, reallocating
// only what is too small (a zero Output is fine), resets it to the identity
// and returns it: an arena's reusable kernel destination.
func (o *Output) Fit(tokens, heads, dim int) *Output {
	if o.O == nil {
		o.O = new(tensor.Tensor)
	}
	o.O.Resize(tokens, heads, dim)
	o.LSE = tensor.Grown(o.LSE, tokens*heads)
	o.Reset()
	return o
}

// kvTileRows is the height of the fixed K/V tile grid: rows [32i, 32i+32) of
// the KV tensors widen to float64 together, once per query block, and a
// query's scores for the part of a tile its mask admits form one chunk. The
// tile plus one chunk per head stays inside L1 for realistic head dims.
const kvTileRows = 32

// maxBlockQueries caps how many consecutive query tokens share one walk over
// the K/V tiles; scoreBudget caps the float64 score scratch of a block (its
// queries' chunks are written in pass one and read back in pass two, so the
// block should stay cache-resident). The block size is the largest of
// 8/4/2/1 queries whose score stripes fit the budget.
const (
	maxBlockQueries = 8
	scoreBudget     = (512 << 10) / 8
)

// Run is a stretch of consecutive KV rows held in place: a cache page's
// visible rows, or a whole K/V tensor. K and V are row-major [Rows][NKV][DH].
type Run struct {
	K, V []float32
	Rows int
}

// KV is a kernel's key/value operand read where it lives: rows of Heads KV
// heads of Dim floats each, split over Runs that read back to back as one row
// sequence. A mask's KV entries index that sequence. Which runs a row sits in
// is invisible in the output bits: widening a row to float64 is exact wherever
// it comes from, and the kernel visits admitted rows in the same order.
type KV struct {
	Heads, Dim int
	Runs       []Run
}

// Rows returns the operand's row count.
func (kv KV) Rows() int {
	n := 0
	for _, r := range kv.Runs {
		n += r.Rows
	}
	return n
}

// tensorKV is the one-run operand over the whole of k and v.
func tensorKV(k, v *tensor.Tensor) KV {
	n := k.Tokens * k.Heads * k.Dim
	return KV{Heads: k.Heads, Dim: k.Dim, Runs: []Run{{K: k.Data[:n], V: v.Data[:n], Rows: k.Tokens}}}
}

// validate checks what every kernel entry needs of q and the operand.
func (kv KV) validate(q *tensor.Tensor) error {
	if q.Dim != kv.Dim {
		return fmt.Errorf("attention: head dim mismatch q=%d kv=%d", q.Dim, kv.Dim)
	}
	if kv.Heads <= 0 || q.Heads%kv.Heads != 0 {
		return fmt.Errorf("attention: NH=%d not divisible by NKV=%d", q.Heads, kv.Heads)
	}
	rowLen := kv.Heads * kv.Dim
	for i, r := range kv.Runs {
		if r.Rows < 0 || len(r.K) < r.Rows*rowLen || len(r.V) < r.Rows*rowLen {
			return fmt.Errorf("attention: kv run %d has %d/%d floats for %d rows of %d",
				i, len(r.K), len(r.V), r.Rows, rowLen)
		}
	}
	return nil
}

// gqaScratch is one worker's reusable kernel state for a block of queries:
// per query a stripe of tile-major score chunks (group × kvTileRows each),
// the widened query rows, float64 accumulators and the per-head running
// max/denominator, plus the shared widened K or V tile. Kept on a free list
// and grown geometrically, so steady-state kernel calls allocate nothing
// regardless of context length.
type gqaScratch struct {
	scores []float64
	acc    []float64
	qf     []float64
	qt     []float64
	tile   []float64
	max    []float64
	denom  []float64
}

// kernelFree is the size of the kernel's free lists (parallel.FreeList):
// more entries than kernel calls can run at once (one per rank goroutine plus
// the worker pool's at most 64 goroutines), so in steady state every entry
// returns to its list. What a list keeps is bounded too: its keep rejects an
// entry grown past what a budget-sized call needs (a long-context decode
// row's score stripe, the intervals of a huge chunk), which is then left to
// the garbage collector rather than pinned for the life of the process.
const kernelFree = 256

// newFreeList is a kernel free list that keeps what keep accepts.
func newFreeList[T any](keep func(*T) bool) parallel.FreeList[T] {
	return parallel.NewFreeList(kernelFree, keep)
}

// maxKeptIntervalRows bounds the compiled Intervals the free list keeps, in
// query rows, intervals and KV runs each: the masks of chunks up to 64 Ki
// tokens a rank. A kept entry's offsets and intervals are then at most
// 1.25 MB; its runs are one per KV sequence segment, a handful in practice.
const maxKeptIntervalRows = 1 << 16

var (
	// A block's score stripes fit scoreBudget unless one query alone
	// exceeds it; grow may double past the budget once.
	scratchFree   = newFreeList(func(s *gqaScratch) bool { return cap(s.scores) <= 2*scoreBudget })
	intervalsFree = newFreeList(func(iv *Intervals) bool {
		return max(cap(iv.off), cap(iv.flat), cap(iv.runs)) <= maxKeptIntervalRows
	})
	// A merge accumulator is one head row: the model's head dim bounds it.
	mergeAccFree = newFreeList[[]float64](nil)
)

// grow returns a slice of at least need elements, reusing buf when it is
// large enough and otherwise at least doubling it. Contents are not kept.
func grow(buf []float64, need int) []float64 {
	if cap(buf) >= need {
		return buf[:cap(buf)]
	}
	return make([]float64, max(need, 2*cap(buf)))
}

// size makes room for blocks of up to nq queries whose score stripes hold
// stripe float64s each.
func (s *gqaScratch) size(nq, stripe, group, dim int) {
	s.scores = grow(s.scores, nq*stripe)
	s.acc = grow(s.acc, nq*group*dim)
	s.qf = grow(s.qf, nq*group*dim)
	s.qt = grow(s.qt, nq*group*dim)
	s.tile = grow(s.tile, kvTileRows*dim)
	s.max = grow(s.max, nq*group)
	s.denom = grow(s.denom, nq*group)
}

func validateGQA(q, k, v *tensor.Tensor, m Mask) error {
	if err := m.Validate(q.Tokens, k.Tokens); err != nil {
		return err
	}
	return validateShapes(q, k, v)
}

// validateShapes checks what every tensor entry needs of its operands, mask
// or no mask.
func validateShapes(q, k, v *tensor.Tensor) error {
	if k.Tokens != v.Tokens || k.Heads != v.Heads || k.Dim != v.Dim {
		return fmt.Errorf("attention: k %s and v %s differ", k.ShapeString(), v.ShapeString())
	}
	if q.Dim != k.Dim {
		return fmt.Errorf("attention: head dim mismatch q=%d kv=%d", q.Dim, k.Dim)
	}
	if k.Heads == 0 || q.Heads%k.Heads != 0 {
		return fmt.Errorf("attention: NH=%d not divisible by NKV=%d", q.Heads, k.Heads)
	}
	return nil
}

// GQA computes exact grouped-query attention of q against (k, v) under the
// mask. q has NH heads; k and v have NKV heads with NH divisible by NKV.
// Scores are scaled by 1/sqrt(DH). Accumulation is float64 so the kernel is
// a trustworthy oracle for the distributed implementations.
func GQA(q, k, v *tensor.Tensor, m Mask) (*Output, error) {
	out := NewOutput(q.Tokens, q.Heads, q.Dim)
	if err := GQAInto(out, q, k, v, m); err != nil {
		return nil, err
	}
	return out, nil
}

// GQAInto computes GQA into dst, which must have q's shape. dst is reset
// first, so the caller can reuse one Output across many kernel calls (the
// ring sweep loops do). The result is bit-identical to GQA at any worker
// count. It is GQAKVInto over the one run of k and v.
func GQAInto(dst *Output, q, k, v *tensor.Tensor, m Mask) error {
	if err := validateShapes(q, k, v); err != nil {
		return err
	}
	return GQAKVInto(dst, q, tensorKV(k, v), m)
}

// GQAKVInto is GQAInto over an operand read in place: m's KV entries index
// kv's rows, runs read back to back. The result equals GQAInto over the
// same rows gathered into one tensor, bit for bit.
func GQAKVInto(dst *Output, q *tensor.Tensor, kv KV, m Mask) error {
	if err := kv.validate(q); err != nil {
		return err
	}
	if err := m.Validate(q.Tokens, kv.Rows()); err != nil {
		return err
	}
	if dst.O.Tokens != q.Tokens || dst.O.Heads != q.Heads || dst.O.Dim != q.Dim {
		return fmt.Errorf("attention: destination %s does not match q %s", dst.O.ShapeString(), q.ShapeString())
	}
	dst.Reset()
	if q.Tokens == 0 {
		return nil
	}
	iv := intervalsFree.Get()
	defer intervalsFree.Put(iv)
	iv.compile(m)
	gqaTiles(dst, q, kv, iv)
	return nil
}

// tileChunks counts the score chunks of one query row: the pieces its
// intervals are cut into by the kvTileRows grid.
func tileChunks(row []Interval) int {
	n := 0
	for _, r := range row {
		n += (r.Hi-1)/kvTileRows - r.Lo/kvTileRows + 1
	}
	return n
}

// gqaTiles fans the (KV head, query token) cells over the worker pool and
// runs each contiguous chunk of cells as blocks of consecutive queries of one
// KV head. The scratch is sized once per chunk from the chunk's widest query
// row, which also fixes the block size; a decode step is the block of one
// query. Cells write disjoint output rows and a cell's arithmetic does not
// depend on which block it lands in, so any fan-out equals the serial sweep
// exactly.
func gqaTiles(dst *Output, q *tensor.Tensor, kv KV, iv *Intervals) {
	parallel.RunRecycled(tileTasks, kv.Heads*q.Tokens, tileTask{dst: dst, q: q, kv: kv, iv: iv})
}

// tileTask is one gqaTiles fan-out, recycled so that a kernel call hands the
// pool no fresh closure.
type tileTask struct {
	dst *Output
	q   *tensor.Tensor
	kv  KV
	iv  *Intervals
}

var tileTasks = newFreeList[tileTask](nil)

// Run computes cells [lo, hi).
func (tk *tileTask) Run(lo, hi int) {
	dst, q, kv, iv := tk.dst, tk.q, tk.kv, tk.iv
	T := q.Tokens
	group := q.Heads / kv.Heads
	widest := 0
	for cell := lo; cell < hi; cell++ {
		widest = max(widest, tileChunks(iv.Row(cell%T)))
	}
	if widest == 0 {
		return // identity rows: dst is already zero/NegInf
	}
	stripe := widest * group * kvTileRows
	bq := maxBlockQueries
	for bq > 1 && bq*stripe > scoreBudget {
		bq /= 2
	}
	bq = min(bq, hi-lo)
	sc := scratchFree.Get()
	defer scratchFree.Put(sc)
	sc.size(bq, stripe, group, q.Dim)
	for cell := lo; cell < hi; {
		kvh, t := cell/T, cell%T
		nq := min(bq, hi-cell, T-t)
		gqaBlock(dst, q, kv, sc, iv, t, nq, kvh, stripe)
		cell += nq
	}
}

// DecodeKVInto is the decode step's entry to the kernel: query token t of q
// against every row of kv, all of them admitted — the mask of a decode query
// over its own sequence's cached rows, none of which lies past it — written
// into row t of dst in place; dst's other rows are not touched. It is
// GQAKVInto for that one row without the Mask, the Intervals compiled from it
// (an O(n) pass per call), the one-row views and the copies: the same gqaBlock
// runs over the same rows in the same order, one KV head after the other on
// the caller, so the row is bit-identical to GQAKVInto's. A decode step's
// parallelism is its ranks and its batch rows; one row's KV heads are not
// worth a pool dispatch each. It allocates nothing.
func DecodeKVInto(dst *Output, q *tensor.Tensor, kv KV, t int) error {
	if err := kv.validate(q); err != nil {
		return err
	}
	if dst.O.Tokens != q.Tokens || dst.O.Heads != q.Heads || dst.O.Dim != q.Dim {
		return fmt.Errorf("attention: destination %s does not match q %s", dst.O.ShapeString(), q.ShapeString())
	}
	if t < 0 || t >= q.Tokens {
		return fmt.Errorf("attention: decode row %d of %d", t, q.Tokens)
	}
	clear(dst.O.Row2D(t))
	lse := dst.LSE[t*q.Heads:][:q.Heads]
	for i := range lse {
		lse[i] = NegInf
	}
	n := kv.Rows()
	if n == 0 {
		return nil
	}
	group := q.Heads / kv.Heads
	iv := Intervals{flat: []Interval{{Lo: 0, Hi: n}}}
	stripe := tileChunks(iv.flat) * group * kvTileRows
	sc := scratchFree.Get()
	defer scratchFree.Put(sc)
	sc.size(1, stripe, group, q.Dim)
	for kvh := 0; kvh < kv.Heads; kvh++ {
		gqaBlock(dst, q, kv, sc, &iv, t, 1, kvh, stripe)
	}
	return nil
}

// gqaBlock computes every head of nq consecutive query tokens (from t0)
// against one KV head. Pass one walks the K tiles the block's masks touch,
// widening each tile to float64 once for the whole block and only as far as
// the block's intervals reach into it (widening is exact, so sharing it
// changes no bits), and scores every query against the rows of
// the tile its intervals admit, one chunk of group × kvTileRows scores per
// (query, tile piece), chunks laid back to back in walk order. Pass two
// replays the same walk over V: each chunk becomes softmax weights against
// the query's now-final max and is folded into the accumulators right away.
// Both passes visit a query's rows in ascending KV index order and every
// per-(query, head) max, denominator and accumulator is its own chain, so the
// reduction order is fixed regardless of tiling, block size, or how kv's rows
// are split into runs.
func gqaBlock(dst *Output, q *tensor.Tensor, kv KV, sc *gqaScratch, iv *Intervals, t0, nq, kvh, stripe int) {
	dh, group := q.Dim, q.Heads/kv.Heads
	gd, h0 := group*dh, kvh*group
	kvRowLen := kv.Heads * dh
	scale := 1 / math.Sqrt(float64(dh))
	tile := sc.tile[:kvTileRows*dh]
	qf, acc := sc.qf[:nq*gd], sc.acc[:nq*gd]
	maxs, denom := sc.max[:nq*group], sc.denom[:nq*group]
	qt := sc.qt[:nq*gd] // the AVX-512 score kernel's operand, in place of qf
	transposed := scoreWide(group)

	var rows [maxBlockQueries][]Interval
	loTile, hiTile := math.MaxInt, 0
	for b := 0; b < nq; b++ {
		row := iv.Row(t0 + b)
		rows[b] = row
		if len(row) == 0 {
			continue
		}
		loTile = min(loTile, row[0].Lo/kvTileRows)
		hiTile = max(hiTile, (row[len(row)-1].Hi-1)/kvTileRows+1)
		qb := q.Data[((t0+b)*q.Heads+h0)*dh:][:gd]
		if transposed {
			transposeQ(qt[b*gd:], qb, group, dh)
		} else {
			for i, x := range qb {
				qf[b*gd+i] = float64(x)
			}
		}
	}
	clear(acc)
	clear(denom)
	for i := range maxs {
		maxs[i] = NegInf
	}

	for pass := 0; pass < 2; pass++ {
		src := runCursor{runs: kv.Runs, v: pass == 1}
		var cur, off [maxBlockQueries]int // per query: interval cursor, score offset
		for ti := loTile; ti < hiTile; ti++ {
			// Intervals end at or before the operand's last row, so the tile's
			// nominal end bounds them as well as the row count would.
			tileLo := ti * kvTileRows
			tileHi := tileLo + kvTileRows
			// Rows [tileLo, wide) are widened so far: the tile grows only as
			// far as the block's intervals reach, which on the causal
			// diagonal is well short of its end.
			wide := tileLo
			for b := 0; b < nq; b++ {
				row := rows[b]
				for cur[b] < len(row) && row[cur[b]].Hi <= tileLo {
					cur[b]++
				}
				for c := cur[b]; c < len(row) && row[c].Lo < tileHi; c++ {
					lo, hi := max(row[c].Lo, tileLo), min(row[c].Hi, tileHi)
					if hi > wide {
						widenRows(tile[(wide-tileLo)*dh:], &src, wide, hi-wide, kvRowLen, kvh*dh, dh)
						wide = hi
					}
					chunk := sc.scores[b*stripe+off[b]:][:group*kvTileRows]
					piece := tile[(lo-tileLo)*dh : (hi-tileLo)*dh]
					if pass == 0 {
						scoreTileQ(qf[b*gd:], qt[b*gd:], piece, chunk, maxs[b*group:], group, hi-lo, dh, kvTileRows, scale)
					} else {
						softmaxTile(chunk, maxs[b*group:], group, hi-lo, kvTileRows)
						pvTile(chunk, piece, acc[b*gd:], denom[b*group:], group, hi-lo, dh, kvTileRows)
					}
					off[b] += group * kvTileRows
				}
			}
		}
	}

	for b := 0; b < nq; b++ {
		if len(rows[b]) == 0 {
			continue // identity row: dst is already zero/NegInf
		}
		for g := 0; g < group; g++ {
			cell := (t0+b)*q.Heads + h0 + g
			oRow := dst.O.Data[cell*dh:][:dh]
			accg := acc[(b*group+g)*dh:][:dh]
			dg := denom[b*group+g]
			for d := range oRow {
				oRow[d] = float32(accg[d] / dg)
			}
			dst.LSE[cell] = maxs[b*group+g] + math.Log(dg)
		}
	}
}

// runCursor walks an operand's runs, K rows or (v) V rows, in ascending row
// order: run i holds the operand's rows [lo, lo+runs[i].Rows).
type runCursor struct {
	runs  []Run
	v     bool
	i, lo int
}

// widenRows converts n consecutive KV rows of the operand (one KV head's
// dh-wide stripe, starting at operand row base) into the contiguous float64
// tile, one widenRun per run the rows span: a 32-row tile over 16-row pages
// widens in two calls. Widening is exact, so neither sharing the converted
// tile across the head group nor where a run boundary falls changes a bit.
// gqaBlock widens in ascending row order within a pass, so the cursor only
// moves forward.
func widenRows(tile []float64, c *runCursor, base, n, rowLen, headOff, dh int) {
	for n > 0 {
		for base >= c.lo+c.runs[c.i].Rows {
			c.lo += c.runs[c.i].Rows
			c.i++
		}
		r := c.runs[c.i]
		data := r.K
		if c.v {
			data = r.V
		}
		m := min(n, c.lo+r.Rows-base)
		widenRun(tile, data, base-c.lo, m, rowLen, headOff, dh)
		tile, base, n = tile[m*dh:], base+m, n-m
	}
}

// widenRun converts n consecutive rows of one run (one KV head's dh-wide
// stripe, starting at the run's row base) into the contiguous float64 tile.
func widenRun(tile []float64, data []float32, base, n, rowLen, headOff, dh int) {
	if simd.Available() {
		cvt := cvtAVX
		if simd.Active() >= simd.AVX512 {
			cvt = cvt512
		}
		if rowLen == dh {
			cvt(tile[:n*dh], data[base*dh:][:n*dh])
			return
		}
		off := base*rowLen + headOff
		for jj := 0; jj < n; jj++ {
			cvt(tile[jj*dh:][:dh], data[off:][:dh])
			off += rowLen
		}
		return
	}
	if rowLen == dh {
		// Single-KV-head layout: the stripe is the whole row block, one flat
		// conversion loop.
		src := data[base*dh:][: n*dh : n*dh]
		dst := tile[:n*dh]
		for i, x := range src {
			dst[i] = float64(x)
		}
		return
	}
	off := base*rowLen + headOff
	for jj := 0; jj < n; jj++ {
		src := data[off:][:dh:dh]
		dst := tile[jj*dh:][:dh]
		for d, x := range src {
			dst[d] = float64(x)
		}
		off += rowLen
	}
}

// tileAVX reports whether the AVX2 tile kernels take this head dim: they
// handle whole four-lane chunks only, so other dims keep the portable loops.
func tileAVX(dh int) bool { return simd.Available() && dh > 0 && dh%4 == 0 }

// scoreWide reports whether the AVX-512 score kernel takes this head group:
// its lanes are eight heads, so whole octets of them, at any head dim.
func scoreWide(group int) bool { return simd.Active() >= simd.AVX512 && group%8 == 0 }

// pvWide reports whether the AVX-512 PV kernel takes this head dim: its
// lanes are columns, so whole eight-column chunks.
func pvWide(dh int) bool { return simd.Active() >= simd.AVX512 && dh > 0 && dh%8 == 0 }

// transposeQ widens the group's q rows, [head][d], into qt as [d][head]:
// the AVX-512 score kernel's operand, built once per query block in place of
// the row-major copy the other forms read.
func transposeQ[T float32 | float64](qt []float64, q []T, group, dh int) {
	for g := 0; g < group; g++ {
		for d, x := range q[g*dh:][:dh] {
			qt[d*group+g] = float64(x)
		}
	}
}

// scoreTile scores every query head of the group against one widened K tile
// of n rows: scores[g*stride+j] = (q[g*dh:] · rows[j*dh:]) * scale, and
// maxs[g] is raised to the largest of them, compared in row order. The
// four-way unrolled fused multiply-add accumulators break the floating-point
// latency chain; the summation order is a fixed function of the row length,
// never of the caller. It is scoreTileQ with q transposed on the spot; the
// kernel transposes once per query block instead.
func scoreTile(q, rows, scores, maxs []float64, group, n, dh, stride int, scale float64) {
	qt := make([]float64, group*dh)
	transposeQ(qt, q, group, dh)
	scoreTileQ(q, qt, rows, scores, maxs, group, n, dh, stride, scale)
}

// scoreTileQ is scoreTile with q in both layouts: row-major q for the AVX2
// form and the portable loop, q transposed by transposeQ (qt) for the
// AVX-512 form; a caller fills only the one scoreWide(group) selects. The
// loop below is the oracle: the AVX2 form computes eight rows per pass with
// each row's accumulator lanes equal to s0..s3 here, the AVX-512 form eight
// heads per register with lane g of accumulator c equal to head g's s_c.
func scoreTileQ(q, qt, rows, scores, maxs []float64, group, n, dh, stride int, scale float64) {
	q, rows, scores, maxs = q[:group*dh], rows[:n*dh], scores[:(group-1)*stride+n], maxs[:group]
	if scoreWide(group) {
		qt = qt[:group*dh]
		scoreTile512(&qt[0], &rows[0], &scores[0], &maxs[0], group, n, dh, stride, scale)
		return
	}
	if tileAVX(dh) {
		scoreTileAVX(&q[0], &rows[0], &scores[0], &maxs[0], group, n, dh, stride, scale)
		return
	}
	for g := 0; g < group; g++ {
		qg := q[g*dh:][:dh]
		mx := maxs[g]
		for jj := 0; jj < n; jj++ {
			row := rows[jj*dh:][:dh]
			var s0, s1, s2, s3 float64
			i := 0
			for ; i+3 < dh; i += 4 {
				s0 = math.FMA(qg[i], row[i], s0)
				s1 = math.FMA(qg[i+1], row[i+1], s1)
				s2 = math.FMA(qg[i+2], row[i+2], s2)
				s3 = math.FMA(qg[i+3], row[i+3], s3)
			}
			for ; i < dh; i++ {
				s0 = math.FMA(qg[i], row[i], s0)
			}
			s := ((s0 + s2) + (s1 + s3)) * scale
			scores[g*stride+jj] = s
			if s > mx {
				mx = s
			}
		}
		maxs[g] = mx
	}
}

// pvTile folds one widened V tile of n rows into every head's running
// softmax sums: with weights wg = w[g*stride:][:n], denom[g] += wg[j] and
// acc[g*dh+d] = fma(wg[j], rows[j*dh+d], acc[g*dh+d]), both in ascending j.
// Each accumulator element is its own fused multiply-add chain, so the vector
// forms — which keep accumulators in registers across the whole tile, one
// head's 32 columns at a time (AVX2) or four heads' (AVX-512) — reorder
// nothing within a chain.
func pvTile(w, rows, acc, denom []float64, group, n, dh, stride int) {
	w, rows, acc, denom = w[:(group-1)*stride+n], rows[:n*dh], acc[:group*dh], denom[:group]
	if pvWide(dh) {
		pvTile512(&w[0], &rows[0], &acc[0], &denom[0], group, n, dh, stride)
		return
	}
	if tileAVX(dh) {
		pvTileAVX(&w[0], &rows[0], &acc[0], &denom[0], group, n, dh, stride)
		return
	}
	for g := 0; g < group; g++ {
		dg := denom[g]
		accg := acc[g*dh:][:dh]
		for jj, wj := range w[g*stride:][:n] {
			dg += wj
			for d, vd := range rows[jj*dh:][:dh] {
				accg[d] = math.FMA(wj, vd, accg[d])
			}
		}
		denom[g] = dg
	}
}

// Reference is the seed scalar kernel kept verbatim as a second witness: a
// direct per-(token, head, key) evaluation of the mask with float32 dot
// products and float64 softmax accumulation. The tests check the production
// kernel against it and the kernel benchmarks use it as the baseline.
//
//cplint:allow testonly the seed scalar kernel TestGQAMatchesReferenceOnRandomMasks checks the production kernel against
func Reference(q, k, v *tensor.Tensor, m Mask) (*Output, error) {
	if err := validateGQA(q, k, v, m); err != nil {
		return nil, err
	}
	group := q.Heads / k.Heads
	scale := 1 / math.Sqrt(float64(q.Dim))
	out := NewOutput(q.Tokens, q.Heads, q.Dim)

	scores := make([]float64, k.Tokens)
	allowed := make([]int, 0, k.Tokens)
	acc := make([]float64, q.Dim)
	for t := 0; t < q.Tokens; t++ {
		for h := 0; h < q.Heads; h++ {
			kvh := h / group
			qRow := q.Row(t, h)
			allowed = allowed[:0]
			maxScore := NegInf
			for j := 0; j < k.Tokens; j++ {
				if m.KVPos[j] < 0 || m.KVSeq[j] != m.QSeq[t] || m.KVPos[j] > m.QPos[t] {
					continue
				}
				s := float64(tensor.Dot(qRow, k.Row(j, kvh))) * scale
				scores[j] = s
				allowed = append(allowed, j)
				if s > maxScore {
					maxScore = s
				}
			}
			if len(allowed) == 0 {
				continue // LSE stays NegInf, output row stays zero
			}
			var denom float64
			for i := range acc {
				acc[i] = 0
			}
			for _, j := range allowed {
				w := math.Exp(scores[j] - maxScore)
				denom += w
				vRow := v.Row(j, kvh)
				for d := 0; d < q.Dim; d++ {
					acc[d] += w * float64(vRow[d])
				}
			}
			oRow := out.O.Row(t, h)
			for d := 0; d < q.Dim; d++ {
				oRow[d] = float32(acc[d] / denom)
			}
			out.LSE[t*q.Heads+h] = maxScore + math.Log(denom)
		}
	}
	return out, nil
}

// minParallelWork is the job size, in scalar operations, below which a pool
// dispatch costs more than the math: a few µs.
const minParallelWork = 4096

// forCells runs task over n (token, head) cells: through the worker pool,
// or inline when the whole job is smaller than one pool dispatch is worth
// (decode-step Merge/Accumulate touches a handful of rows; the dispatch
// would cost more than the math). Inline and fanned execution are
// bit-identical, so this is purely a throughput decision.
func forCells(work, n int, task cellTask) {
	if work < minParallelWork {
		task.Run(0, n)
		return
	}
	parallel.RunRecycled(cellTasks, n, task)
}

// cellTask is one Merge or AccumulateInto over (token, head) cells.
type cellTask struct {
	dst      *Output
	partials []*Output // Merge's partials; nil for AccumulateInto
	partial  *Output   // AccumulateInto's partial
}

var cellTasks = newFreeList[cellTask](nil)

// Run merges or accumulates cells [lo, hi) into dst.
func (c *cellTask) Run(lo, hi int) {
	if c.partials != nil {
		mergeCells(c.dst, c.partials, lo, hi)
		return
	}
	accumulateCells(c.dst, c.partial, lo, hi)
}

// Merge combines partial attention outputs computed against disjoint KV
// chunks for the same queries, per Equation 4:
//
//	O = Σ_s O_s · exp(LSE_s − LSE_max) / Σ_s exp(LSE_s − LSE_max)
//
// and the merged LSE is LSE_max + log Σ_s exp(LSE_s − LSE_max). In exact
// arithmetic the operation is associative — merging merges is merging
// everything — but in floating point the grouping and order of the partials
// move the low bits, so Merge(a, b, c) and AccumulateInto folds of a, b, c
// agree only to rounding. The ring variants all fold with AccumulateInto in
// one order for that reason; Merge is the benchmark's merge rung. Cells fan
// out over the worker pool; each (token, head) cell is independent, so
// parallel output equals serial exactly.
func Merge(partials ...*Output) *Output {
	if len(partials) == 0 {
		panic("attention: Merge of zero partials")
	}
	first := partials[0]
	out := &Output{O: tensor.New(first.O.Tokens, first.O.Heads, first.O.Dim), LSE: make([]float64, len(first.LSE))}
	MergeInto(out, partials...)
	return out
}

// MergeInto is Merge into a caller-owned destination of the partials' shape
// (the decode sweep merges every layer of every step and keeps one). Every
// cell of dst is written, so it needs no Reset; dst must not be a partial.
func MergeInto(dst *Output, partials ...*Output) {
	if len(partials) == 0 {
		panic("attention: Merge of zero partials")
	}
	tokens, heads, dim := dst.O.Tokens, dst.O.Heads, dst.O.Dim
	for _, p := range partials {
		if p.O.Tokens != tokens || p.O.Heads != heads || p.O.Dim != dim {
			panic(fmt.Sprintf("attention: merge shape mismatch %s vs %s",
				p.O.ShapeString(), dst.O.ShapeString()))
		}
	}
	forCells(tokens*heads*dim, tokens*heads, cellTask{dst: dst, partials: partials})
}

// mergeCells merges (token, head) cells [lo, hi) of the partials into dst.
func mergeCells(dst *Output, partials []*Output, lo, hi int) {
	heads, dim := dst.O.Heads, dst.O.Dim
	// The decode path merges every ring sweep: the per-worker accumulator
	// comes from a free list, not a per-call allocation.
	accp := mergeAccFree.Get()
	defer mergeAccFree.Put(accp)
	if cap(*accp) < dim {
		*accp = make([]float64, dim)
	}
	acc := (*accp)[:dim]
	for idx := lo; idx < hi; idx++ {
		t := idx / heads
		h := idx % heads
		out := dst.O.Row(t, h)
		maxLSE := NegInf
		for _, p := range partials {
			if p.LSE[idx] > maxLSE {
				maxLSE = p.LSE[idx]
			}
		}
		if math.IsInf(maxLSE, -1) {
			clear(out) // nothing attended anywhere; identity row
			dst.LSE[idx] = NegInf
			continue
		}
		var denom float64
		for i := range acc {
			acc[i] = 0
		}
		for _, p := range partials {
			if math.IsInf(p.LSE[idx], -1) {
				continue
			}
			w := math.Exp(p.LSE[idx] - maxLSE)
			denom += w
			row := p.O.Row(t, h)
			for d := 0; d < dim; d++ {
				acc[d] += w * float64(row[d])
			}
		}
		for d := 0; d < dim; d++ {
			out[d] = float32(acc[d] / denom)
		}
		dst.LSE[idx] = maxLSE + math.Log(denom)
	}
}

// AccumulateInto merges partial into dst in place. It is the streaming form
// of Merge used by the ring loop, where partial results arrive one KV chunk
// at a time and keeping all N partials alive would waste memory. Cells fan
// out over the worker pool with the same exact-equality guarantee as Merge.
func AccumulateInto(dst, partial *Output) {
	if dst.O.Tokens != partial.O.Tokens || dst.O.Heads != partial.O.Heads || dst.O.Dim != partial.O.Dim {
		panic(fmt.Sprintf("attention: accumulate shape mismatch %s vs %s",
			dst.O.ShapeString(), partial.O.ShapeString()))
	}
	heads, dim := dst.O.Heads, dst.O.Dim
	forCells(dst.O.Tokens*heads*dim, dst.O.Tokens*heads, cellTask{dst: dst, partial: partial})
}

// accumulateCells folds (token, head) cells [lo, hi) of partial into dst.
func accumulateCells(dst, partial *Output, lo, hi int) {
	heads, dim := dst.O.Heads, dst.O.Dim
	for idx := lo; idx < hi; idx++ {
		t := idx / heads
		h := idx % heads
		a, b := dst.LSE[idx], partial.LSE[idx]
		if math.IsInf(b, -1) {
			continue
		}
		if math.IsInf(a, -1) {
			copy(dst.O.Row(t, h), partial.O.Row(t, h))
			dst.LSE[idx] = b
			continue
		}
		m := a
		if b > m {
			m = b
		}
		wa := math.Exp(a - m)
		wb := math.Exp(b - m)
		denom := wa + wb
		dRow := dst.O.Row(t, h)
		pRow := partial.O.Row(t, h)
		for d := 0; d < dim; d++ {
			dRow[d] = float32((wa*float64(dRow[d]) + wb*float64(pRow[d])) / denom)
		}
		dst.LSE[idx] = m + math.Log(denom)
	}
}
