package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// metricHelp documents the engine's metric families for the # HELP line.
var metricHelp = map[string]string{
	"cp_request_ttft_seconds":            "Time to first token per generate request.",
	"cp_request_itl_seconds":             "Inter-token latency per decoded token.",
	"cp_step_seconds":                    "Scheduler step-loop iteration latency.",
	"cp_queue_wait_seconds":              "Admission-queue wait per scheduled job, by class.",
	"cp_ring_phase_seconds":              "Per-rank ring sweep phase time (compute, comm, all2all) per layer pass.",
	"cp_ring_sweeps_total":               "Ring sweeps (layer passes) executed per rank and op.",
	"cp_requests_total":                  "Prefill, decode and generate requests admitted, by class (a request with a prompt is class prefill).",
	"cp_cohort_ttft_seconds":             "Time to first token per generate request, by workload cohort.",
	"cp_cohort_itl_seconds":              "Inter-token latency per decoded token, by workload cohort.",
	"cp_cohort_e2e_seconds":              "End-to-end request latency, by workload cohort.",
	"cp_cohort_requests_total":           "Requests admitted, by workload cohort.",
	"cp_prefill_chunks_total":            "Live prefill chunks whose ring pass succeeded.",
	"cp_prefix_adopt_total":              "Prefix hits of live traffic: adoptions whose following prefill chunk succeeded.",
	"cp_prefix_detach_total":             "Session prefixes donated to the reuse tree.",
	"cp_recovery_replays_total":          "Completed cluster rebuilds with session replay.",
	"cp_batch_total":                     "Scheduler batching counts, by /v1/stats batch field.",
	"cp_reuse_total":                     "Prefix-reuse and ring-variant counts of live traffic, by /v1/stats reuse field.",
	"cp_recovery_total":                  "Recovery replay counts, by /v1/stats recovery field.",
	"cp_trace_spans_dropped_total":       "Spans dropped at the buffer cap, by rank.",
	"cp_uptime_seconds":                  "Seconds since the server started.",
	"cp_stats_sequence":                  "Monotonic stats snapshot sequence number.",
	"cp_sessions_resident":               "Sessions currently resident in the scheduler.",
	"cp_cluster_epoch":                   "Current cluster incarnation epoch.",
	"cp_overload_shed_total":             "Requests rejected or shed by brownout overload control (429s).",
	"cp_overload_retry_after_total":      "429 responses that carried a Retry-After header.",
	"cp_overload_deadline_expired_total": "Requests aborted by their own timeout_ms deadline (504s).",
	"cp_integrity_checked_total":         "Wire frames whose CRC32C trailer was verified, summed over the cluster's processes.",
	"cp_integrity_rejected_total":        "Wire frames rejected for a CRC32C mismatch, summed over the cluster's processes.",
	"cp_chaos_faults_total":              "Chaos faults injected, by kind.",
	"cp_kernel_pool_total":               "Kernel worker-pool counters, summed over the cluster's processes, by /v1/stats field.",
	"cp_kernel_matmul_total":             "Forward-pass GEMM counters, summed over the cluster's processes, by /v1/stats field.",
	"cp_kernel_ring_overlap_total":       "Ring communication/compute overlap counters, summed over the cluster's processes, by /v1/stats field.",
}

// WriteProm renders every series in Prometheus text exposition format
// (version 0.0.4): families sorted by name, series within a family sorted
// by label signature, histograms as cumulative _bucket/_sum/_count. The
// output is deterministic for a given recorder state.
func (r *Recorder) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	all := make([]*Series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	r.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		return all[i].id < all[j].id
	})
	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, s := range all {
		sn := s.snapshot()
		if s.name != lastFamily {
			lastFamily = s.name
			help := metricHelp[s.name]
			if help == "" {
				help = "No help."
			}
			fmt.Fprintf(bw, "# HELP %s %s\n", s.name, help)
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.name, s.kind)
		}
		switch s.kind {
		case KindCounter, KindGauge:
			fmt.Fprintf(bw, "%s %s\n", s.id, formatFloat(sn.Value))
		case KindHistogram:
			cum := uint64(0)
			for i, b := range BucketBounds {
				cum += sn.Counts[i]
				fmt.Fprintf(bw, "%s %d\n", bucketID(s.name, s.labels, formatFloat(b)), cum)
			}
			cum += sn.Counts[len(BucketBounds)]
			fmt.Fprintf(bw, "%s %d\n", bucketID(s.name, s.labels, "+Inf"), cum)
			fmt.Fprintf(bw, "%s %s\n", seriesID(s.name+"_sum", s.labels), formatFloat(sn.Sum))
			fmt.Fprintf(bw, "%s %d\n", seriesID(s.name+"_count", s.labels), sn.Count)
		}
	}
	return bw.Flush()
}

// bucketID renders a _bucket sample id with the le label appended in
// sorted position.
func bucketID(name string, labels []Label, le string) string {
	ls := append([]Label(nil), labels...)
	ls = append(ls, L("le", le))
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return seriesID(name+"_bucket", ls)
}

// PromSample is one parsed exposition sample.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseProm is the tiny in-tree exposition parser used by tests and the CI
// smoke check. It validates the basics of the text format — every sample
// line parses, TYPE lines precede their family's samples, histogram bucket
// series are cumulative-monotone and agree with _count — and returns the
// samples.
func ParseProm(r io.Reader) ([]PromSample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var samples []PromSample
	types := map[string]string{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("prom line %d: unknown TYPE %q", lineNo, fields[3])
				}
				types[fields[2]] = fields[3]
			}
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("prom line %d: %w", lineNo, err)
		}
		base := s.Name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if t, ok := types[strings.TrimSuffix(s.Name, suf)]; ok && t == "histogram" && strings.HasSuffix(s.Name, suf) {
				base = strings.TrimSuffix(s.Name, suf)
				break
			}
		}
		if _, ok := types[base]; !ok {
			return nil, fmt.Errorf("prom line %d: sample %s has no preceding TYPE", lineNo, s.Name)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := checkHistograms(samples, types); err != nil {
		return nil, err
	}
	return samples, nil
}

func parsePromSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return s, fmt.Errorf("unterminated label set")
		}
		if err := parsePromLabels(rest[i+1:j], s.Labels); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return s, fmt.Errorf("malformed sample %q", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	if s.Name == "" || !isPromName(s.Name) {
		return s, fmt.Errorf("bad metric name %q", s.Name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return s, fmt.Errorf("sample %s has no value", s.Name)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("sample %s: bad value %q", s.Name, fields[0])
	}
	s.Value = v
	return s, nil
}

func parsePromLabels(body string, into map[string]string) error {
	i := 0
	for i < len(body) {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 {
			return fmt.Errorf("label without '=' in %q", body)
		}
		key := strings.TrimSpace(body[i : i+eq])
		if !isPromName(key) {
			return fmt.Errorf("bad label name %q", key)
		}
		i += eq + 1
		if i >= len(body) || body[i] != '"' {
			return fmt.Errorf("label %s: unquoted value", key)
		}
		i++
		var val strings.Builder
		for i < len(body) && body[i] != '"' {
			if body[i] == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(body[i])
				}
			} else {
				val.WriteByte(body[i])
			}
			i++
		}
		if i >= len(body) {
			return fmt.Errorf("label %s: unterminated value", key)
		}
		i++ // closing quote
		into[key] = val.String()
		if i < len(body) && body[i] == ',' {
			i++
		}
		for i < len(body) && body[i] == ' ' {
			i++
		}
	}
	return nil
}

func isPromName(s string) bool {
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return s != ""
}

// checkHistograms verifies bucket monotonicity, that every histogram has a
// +Inf bucket, and that the +Inf cumulative count equals _count.
func checkHistograms(samples []PromSample, types map[string]string) error {
	type hist struct {
		buckets map[float64]float64 // le -> cumulative
		hasInf  bool
		inf     float64
		count   float64
		hasCnt  bool
	}
	hists := map[string]*hist{}
	sig := func(base string, labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString(base)
		for _, k := range keys {
			fmt.Fprintf(&b, ",%s=%s", k, labels[k])
		}
		return b.String()
	}
	get := func(key string) *hist {
		h := hists[key]
		if h == nil {
			h = &hist{buckets: map[float64]float64{}}
			hists[key] = h
		}
		return h
	}
	for _, s := range samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket") && types[strings.TrimSuffix(s.Name, "_bucket")] == "histogram":
			base := strings.TrimSuffix(s.Name, "_bucket")
			h := get(sig(base, s.Labels))
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %s: bucket without le", base)
			}
			if le == "+Inf" {
				h.hasInf = true
				h.inf = s.Value
			} else {
				b, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("histogram %s: bad le %q", base, le)
				}
				h.buckets[b] = s.Value
			}
		case strings.HasSuffix(s.Name, "_count") && types[strings.TrimSuffix(s.Name, "_count")] == "histogram":
			base := strings.TrimSuffix(s.Name, "_count")
			h := get(sig(base, s.Labels))
			h.count = s.Value
			h.hasCnt = true
		}
	}
	for key, h := range hists {
		if !h.hasInf {
			return fmt.Errorf("histogram %s: no +Inf bucket", key)
		}
		bounds := make([]float64, 0, len(h.buckets))
		for b := range h.buckets {
			bounds = append(bounds, b)
		}
		sort.Float64s(bounds)
		last := 0.0
		for _, b := range bounds {
			if h.buckets[b] < last {
				return fmt.Errorf("histogram %s: bucket counts not cumulative at le=%v", key, b)
			}
			last = h.buckets[b]
		}
		if h.inf < last {
			return fmt.Errorf("histogram %s: +Inf bucket below le=%v bucket", key, last)
		}
		if h.hasCnt && h.inf != h.count {
			return fmt.Errorf("histogram %s: +Inf bucket %v != count %v", key, h.inf, h.count)
		}
	}
	return nil
}
