package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Spans returns a copy of the buffered spans in the deterministic export
// order: (Epoch, Rank, Index). Each rank's spans appear in its program
// order, so the same workload exports the same ordering on every run.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := r.spans.spans()
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Index < b.Index
	})
	return out
}

// WriteJSONL writes one canonical JSON object per span in export order —
// the recorded-trace format the roadmap's replay validator consumes.
// encoding/json sorts the Args map keys, so the byte layout of each record
// is a pure function of the span.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one Chrome trace-event-format entry ("X" complete events
// plus "M" process-name metadata).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromePid maps a rank to a Chrome process id (the coordinator
// pseudo-rank gets its own process lane).
func chromePid(rank int) int {
	if rank == CoordinatorRank {
		return 1000
	}
	return rank
}

// WriteChromeTrace writes the spans as Chrome trace-event-format JSON
// (load it at chrome://tracing or ui.perfetto.dev). One process per rank,
// timestamps in microseconds relative to the earliest span.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans := r.Spans()
	var base int64
	ranks := map[int]bool{}
	for i, s := range spans {
		if i == 0 || s.Start < base {
			base = s.Start
		}
		ranks[s.Rank] = true
	}
	rankList := make([]int, 0, len(ranks))
	for rk := range ranks {
		rankList = append(rankList, rk)
	}
	sort.Ints(rankList)
	events := make([]chromeEvent, 0, len(spans)+len(rankList))
	for _, rk := range rankList {
		name := fmt.Sprintf("rank %d", rk)
		if rk == CoordinatorRank {
			name = "coordinator"
		}
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: chromePid(rk), Tid: 0,
			Args: map[string]any{"name": name},
		})
	}
	for _, s := range spans {
		args := map[string]any{"epoch": s.Epoch, "index": s.Index}
		if s.Seq != NoSeq {
			args["seq"] = s.Seq
		}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", Pid: chromePid(s.Rank), Tid: 1,
			Ts: float64(s.Start-base) / 1e3, Dur: float64(s.Dur) / 1e3, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// ValidateChromeTrace checks data against the Chrome trace event schema:
// a top-level traceEvents array whose entries carry name/ph/pid/tid with
// the right types, ts (and dur for "X" events) as numbers. Used by tests
// and the CI smoke step.
func ValidateChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("chrome trace: missing traceEvents array")
	}
	for i, ev := range doc.TraceEvents {
		var name, ph string
		if err := requireJSON(ev, "name", &name); err != nil {
			return fmt.Errorf("chrome trace: event %d: %w", i, err)
		}
		if err := requireJSON(ev, "ph", &ph); err != nil {
			return fmt.Errorf("chrome trace: event %d: %w", i, err)
		}
		var pid, tid float64
		if err := requireJSON(ev, "pid", &pid); err != nil {
			return fmt.Errorf("chrome trace: event %d: %w", i, err)
		}
		if err := requireJSON(ev, "tid", &tid); err != nil {
			return fmt.Errorf("chrome trace: event %d: %w", i, err)
		}
		if ph == "X" {
			var ts, dur float64
			if err := requireJSON(ev, "ts", &ts); err != nil {
				return fmt.Errorf("chrome trace: event %d: %w", i, err)
			}
			if raw, ok := ev["dur"]; ok {
				if err := json.Unmarshal(raw, &dur); err != nil {
					return fmt.Errorf("chrome trace: event %d: dur: %w", i, err)
				}
				if dur < 0 {
					return fmt.Errorf("chrome trace: event %d: negative dur", i)
				}
			}
		}
	}
	return nil
}

func requireJSON(ev map[string]json.RawMessage, key string, into any) error {
	raw, ok := ev[key]
	if !ok {
		return fmt.Errorf("missing %q", key)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	return nil
}
