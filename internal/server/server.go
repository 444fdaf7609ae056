package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/transformer"
)

// Config sizes the inference server.
type Config struct {
	Transformer transformer.Config
	Ranks       int
	// Variant selects the prefill ring algorithm; decode always rides
	// pass-Q. Defaults to pass-KV.
	Variant model.Variant
	// TokenBudget caps prompt tokens prefilled per scheduler iteration
	// (chunked prefill). 0 = default.
	TokenBudget int
	// MaxBatch caps the sessions fused into one DecodeNext. 0 = default.
	MaxBatch int
	// MaxSessions caps concurrently resident sessions (admission control).
	// 0 = default.
	MaxSessions int
	// MaxTokens caps a single generate request's max_tokens. 0 = default.
	MaxTokens int
	// PrefixCacheTokens bounds the prefix KV-reuse tree released sessions
	// detach into. 0 = default budget; negative disables prefix reuse.
	PrefixCacheTokens int
	// KVCapacity caps each rank's KV in tokens (the simulated HBM budget;
	// every layer's cache gets the cap). 0 = unlimited.
	KVCapacity int
	// RecvTimeout overrides the cluster's communication receive deadline.
	// 0 = comm.DefaultRecvTimeout. In distributed mode the workers own
	// their ring deadline (cprank -recv-timeout, which should match this);
	// here it sizes the coordinator's per-command reply deadline, which
	// must exceed the ring deadline.
	RecvTimeout time.Duration
	// RankAddrs switches the server into distributed mode: instead of
	// simulating ranks in-process, it connects to one cprank worker process
	// per address (index = rank id) and coordinates them over TCP. Ranks is
	// ignored; the world size is len(RankAddrs). Workers must be started
	// with the same seed and KV capacity (the rendezvous digest enforces
	// it).
	RankAddrs []string
	// DialTimeout bounds the distributed control-plane rendezvous.
	// 0 = default.
	DialTimeout time.Duration
	// Recover arms fault recovery: a rank failure triggers an epoch
	// rebuild and bit-identical session replay instead of faulting every
	// in-flight session. See SchedulerConfig.Recover.
	Recover bool
	// MaxRecoveries bounds lifetime rebuild attempts (0 = 3 when Recover).
	MaxRecoveries int
	// HeartbeatEvery is the workers' control-connection heartbeat interval
	// (worker → coordinator liveness), which with HeartbeatMisses sets the
	// coordinator's miss window. 0 = the transport default (500ms); negative
	// is rejected (transport.CheckHeartbeat). In-process clusters ignore it.
	HeartbeatEvery time.Duration
	// HeartbeatMisses is how many silent heartbeat windows declare a worker
	// dead. 0 = default; must be >= 2 (a single missed beat flaps on
	// scheduling jitter); negative disables the idle deadline.
	HeartbeatMisses int
	// BrownoutSLO arms brownout overload control: while the recent p90 queue
	// wait exceeds this bound, new-session admissions are answered 429 with
	// Retry-After instead of queued. 0 disables. See
	// SchedulerConfig.BrownoutSLO.
	BrownoutSLO time.Duration
	// Cohorts pre-registers workload cohort labels for per-cohort latency
	// series (cp_cohort_*); requests tag themselves via the "cohort" JSON
	// field. Unregistered names past the label-pool cap fold into "other".
	Cohorts []string
}

// Server is an HTTP inference frontend over one context-parallel cluster
// driven by the continuous-batching scheduler.
//
//	POST   /v1/generate  {"session":1,"prompt":[..],"max_tokens":8}
//	POST   /v1/prefill   {"session":1,"tokens":[..]}
//	POST   /v1/decode    {"session":1,"token":5}
//	GET    /v1/stats
//	DELETE /v1/session/{id}
type Server struct {
	cfg       Config
	sched     *Scheduler
	rec       *trace.Recorder
	started   time.Time     // read from the scheduler's clock, as is uptime
	seq       atomic.Uint64 // /v1/stats snapshot sequence
	closeOnce sync.Once

	// The level gauges the scrapes and polls set, resolved once.
	gSequence *trace.Series // cp_stats_sequence
	gUptime   *trace.Series // cp_uptime_seconds
	gSessions *trace.Series // cp_sessions_resident
}

// New builds the server, its cluster, and the scheduler step loop.
func New(cfg Config) (*Server, error) {
	if len(cfg.RankAddrs) > 0 {
		cfg.Ranks = len(cfg.RankAddrs)
	}
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("server: non-positive rank count %d", cfg.Ranks)
	}
	w, err := transformer.NewWeights(cfg.Transformer)
	if err != nil {
		return nil, err
	}
	rec := trace.New()
	var cluster *transformer.Cluster
	if len(cfg.RankAddrs) > 0 {
		cfg.RankAddrs, err = NormalizeRankAddrs(cfg.RankAddrs)
		if err != nil {
			return nil, err
		}
		cluster, err = transformer.ConnectCluster(w, transformer.ConnectConfig{
			Addrs:           cfg.RankAddrs,
			KVCapacity:      cfg.KVCapacity,
			DialTimeout:     cfg.DialTimeout,
			RecvTimeout:     cfg.RecvTimeout,
			HeartbeatEvery:  cfg.HeartbeatEvery,
			HeartbeatMisses: cfg.HeartbeatMisses,
			Trace:           rec,
		})
	} else {
		copts := []transformer.ClusterOption{transformer.WithTrace(rec)}
		if cfg.RecvTimeout > 0 {
			copts = append(copts, transformer.WithRecvTimeout(cfg.RecvTimeout))
		}
		if cfg.KVCapacity > 0 {
			copts = append(copts, transformer.WithKVCapacity(cfg.KVCapacity))
		}
		cluster, err = transformer.NewCluster(w, cfg.Ranks, copts...)
	}
	if err != nil {
		return nil, err
	}
	srv := &Server{
		cfg: cfg,
		rec: rec,
		sched: NewScheduler(cluster, SchedulerConfig{
			Variant:           cfg.Variant,
			TokenBudget:       cfg.TokenBudget,
			MaxBatch:          cfg.MaxBatch,
			MaxSessions:       cfg.MaxSessions,
			MaxTokens:         cfg.MaxTokens,
			PrefixCacheTokens: cfg.PrefixCacheTokens,
			Recover:           cfg.Recover,
			MaxRecoveries:     cfg.MaxRecoveries,
			BrownoutSLO:       cfg.BrownoutSLO,
			Cohorts:           cfg.Cohorts,
		}),
		gSequence: rec.Gauge("cp_stats_sequence"),
		gUptime:   rec.Gauge("cp_uptime_seconds"),
		gSessions: rec.Gauge("cp_sessions_resident"),
	}
	srv.started = srv.sched.now()
	return srv, nil
}

// Scheduler exposes the continuous-batching engine, e.g. for load drivers
// that want occupancy reports.
func (s *Server) Scheduler() *Scheduler { return s.sched }

// NormalizeRankAddrs validates a distributed worker address list up front
// and returns it in the exact form the dialer will use: every entry must
// parse as host:port (surrounding whitespace is stripped, since flag lists
// are often written "a:1, b:2") and be unique after stripping. Failing here
// produces one clear line instead of a rendezvous hang or a mid-handshake
// rejection.
func NormalizeRankAddrs(addrs []string) ([]string, error) {
	out := make([]string, len(addrs))
	seen := make(map[string]int, len(addrs))
	for i, raw := range addrs {
		addr := strings.TrimSpace(raw)
		host, port, err := net.SplitHostPort(addr)
		if err != nil || host == "" || port == "" {
			return nil, fmt.Errorf("server: rank %d address %q is not host:port", i, raw)
		}
		if p, err := strconv.Atoi(port); err != nil || p <= 0 || p > 65535 {
			return nil, fmt.Errorf("server: rank %d address %q has invalid port %q", i, raw, port)
		}
		if prev, dup := seen[addr]; dup {
			return nil, fmt.Errorf("server: ranks %d and %d share address %q", prev, i, addr)
		}
		seen[addr] = i
		out[i] = addr
	}
	return out, nil
}

// ValidateRankAddrs is NormalizeRankAddrs without the normalized result.
func ValidateRankAddrs(addrs []string) error {
	_, err := NormalizeRankAddrs(addrs)
	return err
}

// Close stops the scheduler — draining the in-flight iteration, so claimed
// decode streams finish their step and return truncated successes — and
// only then releases the cluster (in distributed mode: shuts the worker
// processes down and hangs up the control plane). The order matters: the
// scheduler owns all cluster execution, so the cluster hangup can never
// race an in-flight chunk or batch. Closing more than once is safe, and
// requests arriving after Close uniformly fail with ErrClosed/503.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.sched.Close()
		s.sched.WithCluster(func(c *transformer.Cluster) { c.Close() })
	})
}

// Handler returns the HTTP routing for the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/generate", s.handleGenerate)
	mux.HandleFunc("/v1/prefill", s.handlePrefill)
	mux.HandleFunc("/v1/decode", s.handleDecode)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/trace", s.handleTrace)
	mux.HandleFunc("/v1/session/", s.handleSession)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodePost is the method check and JSON decode every POST route starts
// with. It answers 405 or 400 itself and reports whether the handler should
// go on. The body is read whole and must hold exactly one JSON value:
// trailing non-whitespace is a 400. A request with a token array has it
// sized first (presizer), so the decode fills one slice of its final length.
func decodePost(w http.ResponseWriter, r *http.Request, req any) bool {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	body, err := readBody(r)
	if err == nil {
		if p, ok := req.(presizer); ok {
			p.presize(body)
		}
		err = json.Unmarshal(body, req)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad json: %v", err)
		return false
	}
	return true
}

// maxBodyHint caps what readBody allocates on a Content-Length header's word
// before the bytes arrive.
const maxBodyHint = 256 << 10

// readBody reads r's body to EOF into one buffer. A Content-Length sizes
// the buffer one byte over, so the read that confirms EOF needs no room of
// its own, but it is only a hint: at most maxBodyHint is allocated before a
// byte arrives, and past that the buffer doubles only as the bytes fill it,
// never beyond the declared length while they are within it. Without a
// Content-Length the buffer starts at 512 bytes and doubles the same way.
func readBody(r *http.Request) ([]byte, error) {
	size := int64(512)
	if r.ContentLength > 0 {
		size = min(r.ContentLength, maxBodyHint) + 1
	}
	buf := make([]byte, 0, size)
	for {
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			grow := int64(cap(buf))
			if rest := r.ContentLength + 1 - int64(len(buf)); rest > 0 {
				grow = min(grow, rest)
			}
			buf = append(make([]byte, 0, int64(len(buf))+grow), buf...)
		}
	}
}

// presizer is a request with a token array, which it sizes from the raw
// body before the decode fills it.
type presizer interface{ presize(body []byte) }

// tokenCount is the element count of a JSON array, taken without decoding
// the elements: one more than its commas, none for an empty array, and
// never more than one per two bytes, which is all a valid array can hold.
// A presize pass decodes a body into a struct of tokenCounts, so keys match
// exactly as in the real decode; the count only sizes the slice that decode
// fills, which does all the validation and writes every error. A named
// slice type decoding itself would do it in one pass, but an error from an
// UnmarshalJSON ends encoding/json's decode where a type error elsewhere
// lets it go on, so a body with two type errors would report another one.
type tokenCount int

func (c *tokenCount) UnmarshalJSON(data []byte) error {
	if data[0] != '[' {
		return nil
	}
	elems := bytes.TrimSpace(data[1 : len(data)-1])
	if len(elems) == 0 {
		return nil
	}
	// A repeated key decodes every array it names into one slice.
	*c = max(*c, tokenCount(min(bytes.Count(elems, []byte{','})+1, len(data)/2)))
	return nil
}

type generateRequest struct {
	Session   int   `json:"session"`
	Prompt    []int `json:"prompt"`
	MaxTokens int   `json:"max_tokens"`
	// NoCache opts this request out of prefix reuse: the prompt is never
	// served from cached KV and the session never donates KV on release.
	NoCache bool `json:"no_cache,omitempty"`
	// TimeoutMs is this request's deadline in milliseconds, 0 for none: the
	// step loop claims no chunk or step for the request past it, and the
	// request is answered 504. A negative value, or one too large for a
	// time.Duration, is a 400.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Cohort tags the request with its workload class ("chat", "rag", ...)
	// for per-cohort latency attribution in /metrics and /v1/stats.
	Cohort string `json:"cohort,omitempty"`
}

// presize sizes Prompt for the body's "prompt" array; errors are the
// decode's to report.
func (q *generateRequest) presize(body []byte) {
	var n struct {
		Prompt tokenCount `json:"prompt"`
	}
	_ = json.Unmarshal(body, &n)
	q.Prompt = make([]int, 0, n.Prompt)
}

// requestContext applies a request's timeout_ms deadline to its HTTP
// context. A negative value, or one too large for a time.Duration, is
// answered 400 here, and ok is false. The returned cancel must run even on
// the no-deadline path.
func requestContext(w http.ResponseWriter, r *http.Request, timeoutMs int) (ctx context.Context, cancel context.CancelFunc, ok bool) {
	if timeoutMs < 0 || int64(timeoutMs) > math.MaxInt64/int64(time.Millisecond) {
		writeErr(w, http.StatusBadRequest, "timeout_ms %d is negative or too large", timeoutMs)
		return nil, nil, false
	}
	ctx, cancel = r.Context(), func() {}
	if timeoutMs > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(timeoutMs)*time.Millisecond)
	}
	return ctx, cancel, true
}

// writeSchedErr maps a scheduler error onto the HTTP response, attaching
// Retry-After (whole seconds, rounded up) when the scheduler shed the
// request in brownout.
func (s *Server) writeSchedErr(w http.ResponseWriter, err error) {
	var oe *OverloadError
	if errors.As(err, &oe) {
		secs := max(1, int(math.Ceil(oe.RetryAfter.Seconds())))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		s.sched.noteRetryAfter()
	}
	writeErr(w, statusFor(err), "%v", err)
}

type generateResponse struct {
	Tokens []int     `json:"tokens"`
	TTFTMs float64   `json:"ttft_ms"`
	TTITMs []float64 `json:"ttit_ms"`
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req generateRequest
	if !decodePost(w, r, &req) {
		return
	}
	if len(req.Prompt) == 0 || req.MaxTokens <= 0 {
		writeErr(w, http.StatusBadRequest, "prompt and max_tokens required")
		return
	}
	ctx, cancel, ok := requestContext(w, r, req.TimeoutMs)
	if !ok {
		return
	}
	defer cancel()
	res, err := s.sched.GenerateWith(ctx, req.Session, req.Prompt, req.MaxTokens,
		RequestOptions{NoPrefixCache: req.NoCache, Cohort: req.Cohort})
	if err != nil {
		s.writeSchedErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, generateResponse{Tokens: res.Tokens, TTFTMs: res.TTFTMs, TTITMs: res.TTITMs})
}

type prefillRequest struct {
	Session   int    `json:"session"`
	Tokens    []int  `json:"tokens"`
	NoCache   bool   `json:"no_cache,omitempty"`
	TimeoutMs int    `json:"timeout_ms,omitempty"`
	Cohort    string `json:"cohort,omitempty"`
}

// presize sizes Tokens for the body's "tokens" array; errors are the
// decode's to report.
func (q *prefillRequest) presize(body []byte) {
	var n struct {
		Tokens tokenCount `json:"tokens"`
	}
	_ = json.Unmarshal(body, &n)
	q.Tokens = make([]int, 0, n.Tokens)
}

type prefillResponse struct {
	NextToken  int `json:"next_token"`
	SessionLen int `json:"session_len"`
}

func (s *Server) handlePrefill(w http.ResponseWriter, r *http.Request) {
	var req prefillRequest
	if !decodePost(w, r, &req) {
		return
	}
	if len(req.Tokens) == 0 {
		writeErr(w, http.StatusBadRequest, "tokens required")
		return
	}
	ctx, cancel, ok := requestContext(w, r, req.TimeoutMs)
	if !ok {
		return
	}
	defer cancel()
	next, err := s.sched.PrefillWith(ctx, req.Session, req.Tokens,
		RequestOptions{NoPrefixCache: req.NoCache, Cohort: req.Cohort})
	if err != nil {
		s.writeSchedErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, prefillResponse{NextToken: next, SessionLen: s.sessionLen(req.Session)})
}

type decodeRequest struct {
	Session   int `json:"session"`
	Token     int `json:"token"`
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request) {
	var req decodeRequest
	if !decodePost(w, r, &req) {
		return
	}
	ctx, cancel, ok := requestContext(w, r, req.TimeoutMs)
	if !ok {
		return
	}
	defer cancel()
	next, err := s.sched.Decode(ctx, req.Session, req.Token)
	if err != nil {
		s.writeSchedErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, prefillResponse{NextToken: next, SessionLen: s.sessionLen(req.Session)})
}

// statusFor maps scheduler errors to HTTP statuses: a closed scheduler
// means the service is going away (503), KV-capacity shedding is deliberate
// overload that clients should back off and retry (503, not a fault),
// brownout shedding is deliberate overload with an explicit backoff hint
// (429 + Retry-After), a request that outlived its own timeout_ms deadline
// timed out (504), a session released mid-request is a conflict with a
// concurrent DELETE (409), an ExecError is an internal cluster failure
// (500), everything else is a request-level failure (400).
func statusFor(err error) int {
	if errors.Is(err, ErrClosed) {
		return http.StatusServiceUnavailable
	}
	var capErr *transformer.CapacityError
	if errors.As(err, &capErr) {
		return http.StatusServiceUnavailable
	}
	var oe *OverloadError
	if errors.As(err, &oe) {
		return http.StatusTooManyRequests
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	if errors.Is(err, ErrReleased) {
		return http.StatusConflict
	}
	if errors.Is(err, ErrUnknownSession) {
		return http.StatusNotFound
	}
	var execErr *ExecError
	if errors.As(err, &execErr) {
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		writeErr(w, http.StatusMethodNotAllowed, "DELETE required")
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/session/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad session id %q", idStr)
		return
	}
	if !s.sched.Known(id) {
		writeErr(w, http.StatusNotFound, "unknown session %d", id)
		return
	}
	s.sched.Release(id)
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (s *Server) sessionLen(id int) int {
	var n int
	s.sched.WithCluster(func(c *transformer.Cluster) { n = c.SeqLen(id) })
	return n
}
