package server

import (
	"io"
	"net/http"
	"strconv"

	"repro/internal/chaos"
	"repro/internal/comm/wire"
	"repro/internal/parallel"
	"repro/internal/prefixcache"
	"repro/internal/ring"
	"repro/internal/simd"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/transformer"
)

// Recorder exposes the observability store.
func (s *Server) Recorder() *trace.Recorder { return s.rec }

// syncTrace drains every distributed worker's staged spans and metric
// deltas, process counters among them, into the coordinator recorder — one
// Telemetry round trip — follows this process's counters into it, and
// refreshes the level gauges.
func (s *Server) syncTrace() error {
	var err error
	s.sched.WithCluster(func(c *transformer.Cluster) { err = c.SyncTrace() })
	s.gUptime.Set(s.sched.now().Sub(s.started).Seconds())
	s.gSessions.Set(float64(s.sched.Sessions()))
	return err
}

// syncedTrace is the common front of /metrics and /v1/trace: it answers the
// request itself (405, 503 once closed, 500 on a failed drain) or drains the
// distributed workers — so the export includes ring phases recorded since
// the previous scrape — and reports true.
func (s *Server) syncedTrace(w http.ResponseWriter, r *http.Request) bool {
	switch {
	case r.Method != http.MethodGet:
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
	case s.sched.Closed():
		writeErr(w, http.StatusServiceUnavailable, "%v", ErrClosed)
	default:
		err := s.syncTrace()
		if err == nil {
			return true
		}
		if s.sched.Closed() {
			writeErr(w, http.StatusServiceUnavailable, "%v", ErrClosed)
		} else {
			writeErr(w, http.StatusInternalServerError, "trace sync: %v", err)
		}
	}
	return false
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.syncedTrace(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.rec.WriteProm(w)
}

// handleTrace serves the span export: Chrome-trace JSON by default (open in
// chrome://tracing or Perfetto), deterministic JSONL with ?format=jsonl.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format != "" && format != "chrome" && format != "jsonl" {
		writeErr(w, http.StatusBadRequest, "unknown format %q (want chrome or jsonl)", format)
		return
	}
	if !s.syncedTrace(w, r) {
		return
	}
	if format == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = s.rec.WriteJSONL(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.rec.WriteChromeTrace(w)
}

// WriteTrace syncs and writes the span export — Chrome-trace JSON when
// chrome is true, JSONL otherwise (cpserve -trace-out uses this at
// shutdown). Sync errors are swallowed: the workers may already be gone,
// and the coordinator's merged store is still worth dumping.
func (s *Server) WriteTrace(w io.Writer, chrome bool) error {
	_ = s.syncTrace()
	if chrome {
		return s.rec.WriteChromeTrace(w)
	}
	return s.rec.WriteJSONL(w)
}

// prefillSource breaks prompt prefill down by where its KV came from.
type prefillSource struct {
	CachedTokens   int64   `json:"cached_tokens"`   // served from the prefix tree
	ComputedTokens int64   `json:"computed_tokens"` // ring-prefilled
	HitRate        float64 `json:"hit_rate"`        // cached / (cached + computed)
}

// commKindStats is one collective family's accounted traffic.
type commKindStats struct {
	Messages int64   `json:"messages"`
	Bytes    float64 `json:"bytes"`
}

// commBlock surfaces the cluster's communication substrate: which transport
// carries the ring, per-collective accounted (modeled) traffic, and
// per-directed-link counters. On the TCP transport each link additionally
// reports actual wire frames/bytes (codec framing, heartbeats, and control
// traffic included); src -1 marks coordinator control links.
type commBlock struct {
	Transport     string                   `json:"transport"`
	TotalBytes    float64                  `json:"total_bytes"`
	TotalMessages int64                    `json:"total_messages"`
	ByKind        map[string]commKindStats `json:"by_kind"`
	Links         []wire.LinkStat          `json:"links,omitempty"`
}

// kernelBlock groups the compute-kernel telemetry: the vector tier the
// kernels run at, the shared worker pool, the forward-pass matmul sweeps
// (pool utilization of the projection, FFN, and logits GEMMs), and the ring
// communication/compute overlap occupancy. The counters sum the cluster's
// processes; the vector tier, the pool width and the overlap switch are the
// serving process's.
type kernelBlock struct {
	SIMD        string             `json:"simd"`
	Pool        parallel.Stats     `json:"pool"`
	Matmul      tensor.MatmulStats `json:"matmul"`
	RingOverlap ring.OverlapStats  `json:"ring_overlap"`
}

// quantileBlock summarizes one latency histogram (seconds; log-scale
// buckets, so quantiles are upper bucket bounds).
type quantileBlock struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

func quantilesOf(s *trace.Series) quantileBlock {
	return quantileBlock{
		Count: s.HistCount(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
	}
}

// cohortLatency is one cohort's latency summary in /v1/stats.
type cohortLatency struct {
	TTFT quantileBlock `json:"ttft_seconds"`
	ITL  quantileBlock `json:"itl_seconds"`
	E2E  quantileBlock `json:"e2e_seconds"`
}

// latencyBlock is the /v1/stats serving-latency summary, distilled from the
// same histograms /metrics exposes in full.
type latencyBlock struct {
	TTFT quantileBlock `json:"ttft_seconds"`
	ITL  quantileBlock `json:"itl_seconds"`
	Step quantileBlock `json:"step_seconds"`
	// ByCohort breaks the same latencies down per workload cohort (present
	// once any cohort series is registered).
	ByCohort map[string]cohortLatency `json:"by_cohort,omitempty"`
}

type statsResponse struct {
	Ranks     int     `json:"ranks"`
	Variant   string  `json:"variant"`
	Sessions  int     `json:"sessions"`
	RankKV    []int   `json:"rank_kv_tokens"`
	CommBytes float64 `json:"comm_bytes"`
	UptimeSec float64 `json:"uptime_sec"`
	// UptimeMs is the same clock in integer milliseconds — monotonic across
	// scrapes, so pollers can order snapshots without parsing floats.
	UptimeMs int64 `json:"uptime_ms"`
	// Sequence increments once per served snapshot; two pollers can tell
	// which of their responses is fresher even within one millisecond.
	Sequence    uint64               `json:"sequence"`
	QueueStats  map[Class]QueueStats `json:"queues"`
	SessionLens map[string]int       `json:"session_lens"`
	// Latency summarizes the serving-latency histograms.
	Latency latencyBlock `json:"latency"`
	// Continuous-batching telemetry.
	Batch           BatchStats `json:"batch"`
	MeanOccupancy   float64    `json:"mean_occupancy"`
	MeanIterMs      float64    `json:"mean_iter_ms"`
	TokenBudget     int        `json:"token_budget"`
	MaxBatch        int        `json:"max_batch"`
	MaxSessions     int        `json:"max_sessions"`
	QueuedAdmit     int        `json:"queued_admit"`
	QueuedPrefill   int        `json:"queued_prefill"`
	QueuedDecode    int        `json:"queued_decode"`
	LastDecodeBatch int        `json:"last_decode_batch"`
	// Prefix-reuse telemetry.
	PrefillSource prefillSource      `json:"prefill_source"`
	Reuse         ReuseStats         `json:"reuse"`
	PrefixCache   *prefixcache.Stats `json:"prefix_cache,omitempty"` // nil when disabled
	// Kernel parallelism and per-sweep KV-assembly copy counters: Kernel
	// groups the shared worker pool, the forward-pass matmul sweeps, and
	// the ring communication/compute overlap; KVAssembly shows that KV is
	// copied only into the blocks pass-KV ships, while pass-Q and decode
	// read the cache in place.
	Kernel     kernelBlock          `json:"kernel"`
	KVAssembly ring.BlockCacheStats `json:"kv_assembly"`
	// Comm breaks communication down by collective kind and directed link
	// (wire-level counters included on the TCP transport).
	Comm commBlock `json:"comm"`
	// Recovery is the fault-tolerance telemetry: cluster epoch, rebuild and
	// replay counters, recovered vs. lost sessions. Present even when
	// recovery is disabled (enabled=false) so dashboards need no probing.
	Recovery RecoveryStats `json:"recovery"`
	// Integrity is the wire CRC accounting summed across the cluster's
	// processes; a non-zero frames_rejected proves corruption was detected
	// and contained. It, Chaos and Kernel's counters read the recorder, so
	// they match /metrics.
	Integrity integrityBlock `json:"integrity"`
	// Chaos counts deliberately injected faults by kind, summed across the
	// cluster's processes (all-zero outside chaos runs).
	Chaos chaosBlock `json:"chaos"`
	// Overload is the deadline/brownout shedding telemetry.
	Overload OverloadStats `json:"overload"`
}

// integrityBlock is the /v1/stats "integrity" block: per-frame CRC32C
// verification totals on the data plane.
type integrityBlock struct {
	FramesChecked  int64 `json:"frames_checked"`
	FramesRejected int64 `json:"frames_rejected"`
}

// chaosBlock is the /v1/stats "chaos" block.
type chaosBlock struct {
	InjectedTotal int64            `json:"injected_total"`
	ByKind        map[string]int64 `json:"by_kind,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.sched.Closed() {
		// Uniform post-close behavior: every endpoint answers 503, instead
		// of stats surfacing a confusing closed-cluster telemetry error.
		writeErr(w, http.StatusServiceUnavailable, "%v", ErrClosed)
		return
	}
	ids := s.sched.SessionIDs()
	// Snapshot the scheduler's blocks before the cluster lock: WithCluster
	// blocks for the whole rebuild+replay while a recovery is executing, so
	// sampling afterwards could never observe in_progress=true.
	st := s.sched.snapshot()
	var ranks int
	var tel transformer.Telemetry
	var telErr error
	lens := make(map[string]int, len(ids))
	s.sched.WithCluster(func(c *transformer.Cluster) {
		ranks = c.Ranks()
		tel, telErr = c.Telemetry()
		for _, id := range ids {
			lens[strconv.Itoa(id)] = c.SeqLen(id)
		}
	})
	if telErr != nil {
		if s.sched.Closed() {
			// Close ran while this request was in flight; answer like every
			// other post-close request instead of surfacing a 500.
			writeErr(w, http.StatusServiceUnavailable, "%v", ErrClosed)
			return
		}
		writeErr(w, http.StatusInternalServerError, "cluster telemetry: %v", telErr)
		return
	}
	counters := transformer.RecordedCounters(s.rec)
	chaosStats := chaosBlock{ByKind: make(map[string]int64)}
	for i, kind := range chaos.Kinds {
		if n := counters.Chaos[i]; n > 0 {
			chaosStats.ByKind[string(kind)] = n
			chaosStats.InjectedTotal += n
		}
	}
	// The kernel settings are the serving process's; the counters are the
	// cluster's.
	counters.Pool.Workers = parallel.Workers()
	counters.Overlap.Enabled = ring.OverlapSnapshot().Enabled
	comm := commBlock{
		Transport:     tel.Transport,
		TotalBytes:    tel.Comm.TotalBytes(),
		TotalMessages: tel.Comm.TotalMessages(),
		ByKind:        make(map[string]commKindStats, len(tel.Comm.Messages)),
		Links:         tel.Links,
	}
	for kind, msgs := range tel.Comm.Messages {
		comm.ByKind[string(kind)] = commKindStats{Messages: msgs, Bytes: tel.Comm.Bytes[kind]}
	}
	admitQ, prefillQ, decodeQ := s.sched.QueueDepths()
	var treeStats *prefixcache.Stats
	if tree, ok := s.sched.PrefixStats(); ok {
		treeStats = &tree
	}
	seq := s.seq.Add(1)
	s.gSequence.Set(float64(seq))
	uptime := s.sched.now().Sub(s.started)
	writeJSON(w, http.StatusOK, statsResponse{
		Ranks:           ranks,
		Variant:         s.cfg.Variant.String(),
		Sessions:        len(ids),
		RankKV:          tel.RankKV,
		CommBytes:       tel.Comm.TotalBytes(),
		UptimeSec:       uptime.Seconds(),
		UptimeMs:        uptime.Milliseconds(),
		Sequence:        seq,
		QueueStats:      st.QueueStats,
		SessionLens:     lens,
		Latency:         st.Latency,
		Batch:           st.Batch,
		MeanOccupancy:   st.Batch.MeanOccupancy(),
		MeanIterMs:      st.Batch.MeanIterMs(),
		TokenBudget:     s.sched.cfg.TokenBudget,
		MaxBatch:        s.sched.cfg.MaxBatch,
		MaxSessions:     s.sched.cfg.MaxSessions,
		QueuedAdmit:     admitQ,
		QueuedPrefill:   prefillQ,
		QueuedDecode:    decodeQ,
		LastDecodeBatch: st.LastDecodeBatch,
		PrefillSource: prefillSource{
			CachedTokens:   st.Reuse.CachedTokens,
			ComputedTokens: st.Reuse.ComputedTokens,
			HitRate:        st.Reuse.HitRate(),
		},
		Reuse:       st.Reuse,
		PrefixCache: treeStats,
		Kernel: kernelBlock{
			SIMD:        simd.Active().String(),
			Pool:        counters.Pool,
			Matmul:      counters.Matmul,
			RingOverlap: counters.Overlap,
		},
		KVAssembly: tel.Assembly,
		Comm:       comm,
		Recovery:   st.Recovery,
		Integrity:  integrityBlock{FramesChecked: counters.IntegrityChecked, FramesRejected: counters.IntegrityRejected},
		Chaos:      chaosStats,
		Overload:   st.Overload,
	})
}
