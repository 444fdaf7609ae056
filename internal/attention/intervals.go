package attention

import "sort"

// Interval is a half-open range [Lo, Hi) of KV row indices every one of
// which a query may attend to.
type Interval struct{ Lo, Hi int }

// Intervals is the precomputed contiguous-interval form of a Mask: for each
// query row, the ordered list of KV index ranges it may attend to. The
// kernels iterate these ranges branch-free instead of re-evaluating the
// three-way mask predicate per (query, head, key) score — the predicate
// depends only on the query token, so one pass over the KV metadata serves
// every head.
//
// The builder exploits the structure the ring layer actually produces —
// per-sequence runs of KV rows whose positions are appended in increasing
// order — but stays correct for arbitrary masks: unsorted runs fall back to
// a per-row scan that emits maximal allowed subranges.
type Intervals struct {
	flat []Interval // all rows' intervals, back to back
	// off is, per query row, the start index into flat; len = T+1. Nil means
	// every row admits all of flat (DecodeKVInto's one row, one interval).
	off  []int32
	runs []kvRun // compile's working set, kept for the next compile
}

// kvRun is a maximal run of KV rows sharing one sequence id with no padding
// (negative-position) rows.
type kvRun struct {
	lo, hi    int
	seq       int
	minPos    int
	maxPos    int
	ascending bool // positions non-decreasing across the run
}

// compile rebuilds iv for m in place, reusing the buffers of its previous
// compile (a rank's Scratch keeps one Intervals for this).
func (iv *Intervals) compile(m Mask) {
	iv.runs = buildRuns(iv.runs[:0], m)
	runs := iv.runs
	iv.flat = iv.flat[:0]
	if cap(iv.off) < len(m.QPos)+1 {
		iv.off = make([]int32, len(m.QPos)+1)
	}
	iv.off = iv.off[:len(m.QPos)+1]
	iv.off[0] = 0
	// Consecutive query rows frequently share (seq, pos); when the predicate
	// is identical, duplicate the previous row's intervals instead of
	// re-walking the runs.
	for t := range m.QPos {
		if t > 0 && m.QSeq[t] == m.QSeq[t-1] && m.QPos[t] == m.QPos[t-1] {
			iv.flat = append(iv.flat, iv.flat[iv.off[t-1]:iv.off[t]]...)
			iv.off[t+1] = int32(len(iv.flat))
			continue
		}
		qs, qp := m.QSeq[t], m.QPos[t]
		rowStart := len(iv.flat)
		for _, r := range runs {
			if r.seq != qs || r.minPos > qp {
				continue
			}
			if r.maxPos <= qp {
				iv.appendInterval(rowStart, r.lo, r.hi)
				continue
			}
			if r.ascending {
				// First index whose position exceeds qp bounds the run.
				cut := r.lo + sort.Search(r.hi-r.lo, func(i int) bool {
					return m.KVPos[r.lo+i] > qp
				})
				if cut > r.lo {
					iv.appendInterval(rowStart, r.lo, cut)
				}
				continue
			}
			// Arbitrary order: emit maximal allowed subranges.
			start := -1
			for j := r.lo; j < r.hi; j++ {
				if m.KVPos[j] <= qp {
					if start < 0 {
						start = j
					}
					continue
				}
				if start >= 0 {
					iv.appendInterval(rowStart, start, j)
					start = -1
				}
			}
			if start >= 0 {
				iv.appendInterval(rowStart, start, r.hi)
			}
		}
		iv.off[t+1] = int32(len(iv.flat))
	}
}

// appendInterval adds [lo, hi) to the current query row (whose intervals
// start at flat[rowStart]), merging with the row's previous interval when
// adjacent. The merge must never cross a row boundary: a trailing interval
// of the previous row that happens to end where this one starts belongs to
// a different query.
func (iv *Intervals) appendInterval(rowStart, lo, hi int) {
	if n := len(iv.flat); n > rowStart && iv.flat[n-1].Hi == lo {
		iv.flat[n-1].Hi = hi
		return
	}
	iv.flat = append(iv.flat, Interval{Lo: lo, Hi: hi})
}

// Row returns query row t's allowed intervals, ascending and non-overlapping.
func (iv *Intervals) Row(t int) []Interval {
	if iv.off == nil {
		return iv.flat
	}
	return iv.flat[iv.off[t]:iv.off[t+1]]
}

// buildRuns appends to runs the KV metadata's maximal same-sequence
// padding-free runs, annotated with position bounds and sortedness.
func buildRuns(runs []kvRun, m Mask) []kvRun {
	n := len(m.KVPos)
	for j := 0; j < n; {
		if m.KVPos[j] < 0 {
			j++
			continue
		}
		r := kvRun{lo: j, seq: m.KVSeq[j], minPos: m.KVPos[j], maxPos: m.KVPos[j], ascending: true}
		j++
		for j < n && m.KVPos[j] >= 0 && m.KVSeq[j] == r.seq {
			p := m.KVPos[j]
			if p < m.KVPos[j-1] {
				r.ascending = false
			}
			if p < r.minPos {
				r.minPos = p
			}
			if p > r.maxPos {
				r.maxPos = p
			}
			j++
		}
		r.hi = j
		runs = append(runs, r)
	}
	return runs
}
