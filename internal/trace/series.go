package trace

import (
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind distinguishes the three Prometheus metric families the recorder can
// hold.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Label is one metric dimension. Label sets are sorted by key when a series
// is resolved, so any argument order names the same series.
type Label struct {
	Key   string
	Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// BucketBounds is the shared fixed log-scale bucket layout of every
// histogram: upper bounds doubling from 1µs to ~134s (28 buckets plus the
// implicit +Inf). One fixed layout keeps cross-rank merge a plain
// element-wise addition.
var BucketBounds = func() []float64 {
	b := make([]float64, 28)
	v := 1e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// Series is one labeled metric: a counter, a gauge, or a fixed-bucket
// histogram. Safe for concurrent use; all methods are nil-safe so an
// untraced caller can hold a nil handle.
type Series struct {
	id     string // name{k="v",...} — the registry key and sort key
	name   string
	labels []Label
	kind   Kind

	mu     sync.Mutex
	value  float64  // counter / gauge
	count  uint64   // histogram observations
	sum    float64  // histogram sum
	counts []uint64 // histogram per-bucket counts, len == len(BucketBounds)+1 (+Inf last)
	// drained marks a series Drain has shipped once; shipped is the gauge
	// value it shipped last.
	drained bool
	shipped float64
}

// seriesID renders the canonical registry key.
func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(promEscape(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func promEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// getSeries resolves (creating if absent) a series by kind, name, labels.
func (r *Recorder) getSeries(kind Kind, name string, labels ...Label) *Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	s := r.seriesLocked(kind, name, labels...)
	r.mu.Unlock()
	return s
}

func (r *Recorder) seriesLocked(kind Kind, name string, labels ...Label) *Series {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	id := seriesID(name, ls)
	if s, ok := r.series[id]; ok {
		return s
	}
	s := &Series{id: id, name: name, labels: ls, kind: kind}
	if kind == KindHistogram {
		s.counts = make([]uint64, len(BucketBounds)+1)
	}
	r.series[id] = s
	r.order = append(r.order, id)
	return s
}

// Hist resolves a histogram handle. Resolve once, observe many times.
func (r *Recorder) Hist(name string, labels ...Label) *Series {
	return r.getSeries(KindHistogram, name, labels...)
}

// CounterSeries resolves a labeled counter handle.
func (r *Recorder) CounterSeries(name string, labels ...Label) *Series {
	return r.getSeries(KindCounter, name, labels...)
}

// Gauge resolves a gauge handle.
func (r *Recorder) Gauge(name string, labels ...Label) *Series {
	return r.getSeries(KindGauge, name, labels...)
}

// Observe adds one sample to a histogram (seconds for latency series).
func (s *Series) Observe(v float64) {
	if s == nil || s.kind != KindHistogram {
		return
	}
	i := bucketFor(v)
	s.mu.Lock()
	s.counts[i]++
	s.count++
	s.sum += v
	s.mu.Unlock()
}

func bucketFor(v float64) int {
	// Linear scan: 28 bounds, called once per phase per sweep — not hot.
	for i, b := range BucketBounds {
		if v <= b {
			return i
		}
	}
	return len(BucketBounds)
}

// Inc adds to a counter.
func (s *Series) Inc(d float64) {
	if s == nil || s.kind != KindCounter {
		return
	}
	s.mu.Lock()
	s.value += d
	s.mu.Unlock()
}

// Set sets a gauge.
func (s *Series) Set(v float64) {
	if s == nil || s.kind != KindGauge {
		return
	}
	s.mu.Lock()
	s.value = v
	s.mu.Unlock()
}

// HistCount returns a histogram's observation count.
func (s *Series) HistCount() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Quantile estimates the q-quantile (q in [0,1]) of a histogram as the
// smallest bucket upper bound whose cumulative count reaches q·total —
// deterministic, and within one bucket width of the true sample quantile by
// construction. Returns 0 on an empty histogram; saturates at the last
// finite bound for samples in the +Inf bucket.
func (s *Series) Quantile(q float64) float64 {
	if s == nil || s.kind != KindHistogram {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return 0
	}
	target := q * float64(s.count)
	cum := uint64(0)
	for i, c := range s.counts {
		cum += c
		if float64(cum) >= target {
			if i >= len(BucketBounds) {
				return BucketBounds[len(BucketBounds)-1]
			}
			return BucketBounds[i]
		}
	}
	return BucketBounds[len(BucketBounds)-1]
}

// Snap returns the series' current contents without resetting — the public
// snapshot used by windowed consumers (e.g. the scheduler's brownout
// detector diffing queue-wait histograms between admission checks).
func (s *Series) Snap() SeriesSnap {
	if s == nil {
		return SeriesSnap{}
	}
	return s.snapshot()
}

// DeltaQuantile estimates the q-quantile of the observations a histogram
// gained between two snapshots (prev taken before cur), with the same
// bucket-upper-bound estimate as Series.Quantile. A cumulative histogram's
// quantile is dominated by its history; the delta form answers "how slow is
// it right now". Returns (0, false) when the window holds no observations
// or the snapshots are not histograms.
func DeltaQuantile(cur, prev SeriesSnap, q float64) (float64, bool) {
	if cur.Kind != KindHistogram || cur.Count <= prev.Count || len(cur.Counts) == 0 {
		return 0, false
	}
	total := cur.Count - prev.Count
	target := q * float64(total)
	cum := uint64(0)
	for i, c := range cur.Counts {
		if i < len(prev.Counts) {
			c -= prev.Counts[i]
		}
		cum += c
		if float64(cum) >= target {
			if i >= len(BucketBounds) {
				return BucketBounds[len(BucketBounds)-1], true
			}
			return BucketBounds[i], true
		}
	}
	return BucketBounds[len(BucketBounds)-1], true
}

// snapshot returns the series' current contents without resetting.
func (s *Series) snapshot() SeriesSnap {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn := SeriesSnap{
		Name:   s.name,
		Labels: append([]Label(nil), s.labels...),
		Kind:   s.kind,
		Value:  s.value,
		Count:  s.count,
		Sum:    s.sum,
	}
	if s.kind == KindHistogram {
		sn.Counts = append([]uint64(nil), s.counts...)
	}
	return sn
}

// drain returns the series' delta since the last drain and resets flows
// (counters, histograms); gauges are levels and keep their value. It
// reports false, taking nothing, for a series drained before that has not
// moved since.
func (s *Series) drain() (SeriesSnap, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	moved := s.value != 0
	switch s.kind {
	case KindHistogram:
		moved = s.count > 0
	case KindGauge:
		moved = s.value != s.shipped
	}
	if s.drained && !moved {
		return SeriesSnap{}, false
	}
	s.drained, s.shipped = true, s.value
	sn := SeriesSnap{
		Name:   s.name,
		Labels: append([]Label(nil), s.labels...),
		Kind:   s.kind,
		Value:  s.value,
		Count:  s.count,
		Sum:    s.sum,
	}
	switch s.kind {
	case KindHistogram:
		sn.Counts = append([]uint64(nil), s.counts...)
		for i := range s.counts {
			s.counts[i] = 0
		}
		s.count = 0
		s.sum = 0
	case KindCounter:
		s.value = 0
	}
	return sn, true
}

// merge folds a drained delta in: counters and histograms add, gauges take
// the incoming value.
func (s *Series) merge(sn SeriesSnap) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.kind {
	case KindCounter:
		s.value += sn.Value
	case KindGauge:
		s.value = sn.Value
	case KindHistogram:
		s.count += sn.Count
		s.sum += sn.Sum
		for i := 0; i < len(s.counts) && i < len(sn.Counts); i++ {
			s.counts[i] += sn.Counts[i]
		}
	}
}

// formatFloat renders a float the way the Prometheus text format expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
