package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of the traced run: a handler call, a request,
// a round phase or a layer rung. Start and End are nanoseconds since the
// log was opened; Parent is the id of the span that caused it (-1 for a
// root); Req is the session id shared by the spans of one request (-1 when
// the span belongs to none).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends. A nil
// log is tracing off: begin and end are no-ops, so the untraced run pays one
// nil check per call.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil log).
func (l *spanLog) begin(name string, parent, req int) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Span(nil), l.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover: the union of the children clipped to
// the parent, so overlapping children (two clients inside one phase) are not
// subtracted twice.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanSummary aggregates total and self time by span name, for the traced
// run's report.
type spanSummary struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
}

func summarizeSpans(spans []Span) []spanSummary {
	self := selfTimes(spans)
	byName := map[string]*spanSummary{}
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			byName[s.Name] = a
		}
		a.Count++
		a.TotalMs += float64(s.End-s.Start) / 1e6
		a.SelfMs += float64(self[s.ID]) / 1e6
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]spanSummary, len(names))
	for i, name := range names {
		out[i] = *byName[name]
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
