package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/transformer"
)

// rig is one round's system under test: the server and, for a TCP workload,
// the loopback worker goroutines its ranks live in.
type rig struct {
	srv *server.Server
	h   http.Handler
	// wait blocks until every worker goroutine has exited and returns the
	// first worker error; a no-op for an in-process cluster.
	wait func() error
}

// loopbackListeners binds n listeners on 127.0.0.1 with kernel-chosen ports.
func loopbackListeners(n int) ([]net.Listener, []string, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range listeners[:i] {
				open.Close()
			}
			return nil, nil, fmt.Errorf("loopback listener %d: %w", i, err)
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	return listeners, addrs, nil
}

// loopbackWorkers starts every rank as a transformer.RunWorker goroutine
// behind a loopback listener — the full distributed stack (wire codec, mesh
// rendezvous, control plane) minus process isolation. quiet stretches the
// heartbeat period past any round's length, so wire frame counts depend on
// the requests alone. The workers exit when their coordinator shuts them
// down (or never connects: they give up at the rendezvous deadline); wait
// collects them.
func loopbackWorkers(e Env, quiet bool) (addrs []string, wait func() error, err error) {
	listeners, addrs, err := loopbackListeners(e.Ranks)
	if err != nil {
		return nil, nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, e.Ranks)
	for i := range listeners {
		wc := transformer.WorkerConfig{
			Transformer: e.Model, Rank: i, World: e.Ranks,
			Listener: listeners[i], Addrs: addrs,
		}
		if quiet {
			wc.HeartbeatEvery, wc.HeartbeatMisses = time.Hour, -1
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = transformer.RunWorker(wc)
		}()
	}
	return addrs, func() error {
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("worker %d: %w", i, err)
			}
		}
		return nil
	}, nil
}

// startRig builds the round's server; with w.TCP its ranks are loopback
// workers. The measured rounds keep the shipped heartbeat defaults; quiet
// silences them on both planes.
func startRig(e Env, w Workload, quiet bool) (*rig, error) {
	cfg := e.serverConfig()
	r := &rig{wait: func() error { return nil }}
	if w.TCP {
		var err error
		if cfg.RankAddrs, r.wait, err = loopbackWorkers(e, quiet); err != nil {
			return nil, err
		}
		if quiet {
			cfg.HeartbeatMisses = -1
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		r.wait()
		return nil, fmt.Errorf("server.New: %w", err)
	}
	r.srv, r.h = srv, srv.Handler()
	return r, nil
}

// close shuts the server down and waits for every worker goroutine to end.
func (r *rig) close() error {
	r.srv.Close()
	return r.wait()
}

// reply is the in-process http.ResponseWriter: the handlers run on the
// caller's goroutine with no socket in between.
type reply struct {
	code int
	hdr  http.Header
	body bytes.Buffer
}

func (r *reply) Header() http.Header         { return r.hdr }
func (r *reply) WriteHeader(code int)        { r.code = code }
func (r *reply) Write(b []byte) (int, error) { return r.body.Write(b) }

// call runs one handler invocation and times it from the outside.
func (r *rig) call(method, path string, body []byte) (*reply, time.Duration, error) {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	rep := &reply{code: http.StatusOK, hdr: http.Header{}}
	t0 := time.Now()
	r.h.ServeHTTP(rep, req)
	d := time.Since(t0)
	if rep.code != http.StatusOK {
		return rep, d, fmt.Errorf("%s %s: status %d: %s", method, path, rep.code, bytes.TrimSpace(rep.body.Bytes()))
	}
	return rep, d, nil
}

// Sample is one measured request.
type Sample struct {
	Session int
	TTFTMs  float64 // wall time of the /v1/prefill call
	GenMs   float64 // wall time of the /v1/generate continuation
	// Tokens is the greedy stream: the prefill's next token, then the
	// continuation's tokens.
	Tokens []int
	// ITLMs are the continuation's per-step gaps as the server reports them.
	ITLMs []float64
	Err   error
}

// AllocSample is the heap allocated while one unit of work ran: a request
// where requests run one at a time, the whole measured phase where sessions
// overlap (a Barrier round) and cannot be told apart.
type AllocSample struct {
	Bytes, Mallocs uint64 // ΔMemStats.TotalAlloc, ΔMemStats.Mallocs
	Tokens         int    // prompt tokens submitted + output tokens of the unit
}

// measureAlloc runs fn between two MemStats readings.
func measureAlloc(fn func()) AllocSample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return AllocSample{Bytes: m1.TotalAlloc - m0.TotalAlloc, Mallocs: m1.Mallocs - m0.Mallocs}
}

func (r *rig) prefill(rq Request, spans *spanLog, parent int) (first int, ms float64, err error) {
	id := spans.begin("handler.prefill", parent, rq.Session)
	rep, d, err := r.call(http.MethodPost, "/v1/prefill", rq.PrefillBody)
	spans.end(id)
	if err != nil {
		return 0, 0, err
	}
	var pr struct {
		NextToken int `json:"next_token"`
	}
	if err := json.Unmarshal(rep.body.Bytes(), &pr); err != nil {
		return 0, 0, fmt.Errorf("prefill reply: %w", err)
	}
	return pr.NextToken, float64(d.Nanoseconds()) / 1e6, nil
}

// generate sends the resident-session continuation: the prefill's token as
// a one-token prompt, so the session joins the fused decode batch.
func (r *rig) generate(session, first, out int, spans *spanLog, parent int) (toks []int, itl []float64, ms float64, err error) {
	body, err := json.Marshal(generateBody{Session: session, Prompt: []int{first}, MaxTokens: out})
	if err != nil {
		return nil, nil, 0, err
	}
	id := spans.begin("handler.generate", parent, session)
	rep, d, err := r.call(http.MethodPost, "/v1/generate", body)
	spans.end(id)
	if err != nil {
		return nil, nil, 0, err
	}
	var gr struct {
		Tokens []int     `json:"tokens"`
		TTITMs []float64 `json:"ttit_ms"`
	}
	if err := json.Unmarshal(rep.body.Bytes(), &gr); err != nil {
		return nil, nil, 0, fmt.Errorf("generate reply: %w", err)
	}
	if len(gr.Tokens) != out {
		return nil, nil, 0, fmt.Errorf("generate returned %d tokens, want %d", len(gr.Tokens), out)
	}
	return gr.Tokens, gr.TTITMs, float64(d.Nanoseconds()) / 1e6, nil
}

func (r *rig) release(session int, spans *spanLog, parent int) error {
	id := spans.begin("handler.delete", parent, session)
	_, _, err := r.call(http.MethodDelete, "/v1/session/"+strconv.Itoa(session), nil)
	spans.end(id)
	return err
}

// request runs one whole request: prefill, continuation, DELETE.
func (r *rig) request(w Workload, rq Request, spans *spanLog, parent int) Sample {
	s := Sample{Session: rq.Session}
	id := spans.begin("request", parent, rq.Session)
	defer spans.end(id)
	first, ttft, err := r.prefill(rq, spans, id)
	if err != nil {
		s.Err = err
		return s
	}
	toks, itl, gen, err := r.generate(rq.Session, first, w.Out, spans, id)
	if err != nil {
		s.Err = err
		return s
	}
	s.TTFTMs, s.GenMs, s.ITLMs = ttft, gen, itl
	s.Tokens = append([]int{first}, toks...)
	s.Err = r.release(rq.Session, spans, id)
	return s
}

// RoundResult is what one round measured.
type RoundResult struct {
	SetupS    float64
	MeasuredS float64 // wall time of the measured phases
	Tokens    int     // prompt + output tokens of the requests that succeeded
	Samples   []Sample
	Allocs    []AllocSample
	// Checks and FailedChecks count the round's stream verifications.
	Checks, FailedChecks int
	CheckErrs            []error
	// Counts are the layer counters' deltas over the measured phases; only
	// filled when roundOpts.counts is set.
	Counts *counters
}

type roundOpts struct {
	spans *spanLog
	// quiet silences heartbeats (see startRig).
	quiet bool
	// counts snapshots the layer counters around the measured phases.
	counts bool
	// ref verifies the round's first stream; nil skips verification.
	ref *verifier
}

// runRound executes one round: timed set-up (server construction plus one
// warm-up request of the workload's shape), GC, the measured request set,
// untimed verification, teardown.
func runRound(e Env, w Workload, in RoundInputs, opt roundOpts) (RoundResult, error) {
	var res RoundResult
	root := opt.spans.begin("round", -1, -1)
	defer opt.spans.end(root)

	setupSpan := opt.spans.begin("setup", root, -1)
	t0 := time.Now()
	r, err := startRig(e, w, opt.quiet)
	if err != nil {
		return res, err
	}
	warm := r.request(w, in.Warm, nil, -1)
	res.SetupS = time.Since(t0).Seconds()
	opt.spans.end(setupSpan)
	if warm.Err != nil {
		r.close()
		return res, fmt.Errorf("warm-up request: %w", warm.Err)
	}

	runtime.GC()
	var before *counters
	if opt.counts {
		if before, err = readCounters(r, false); err != nil {
			r.close()
			return res, err
		}
	}
	measured := opt.spans.begin("measured", root, -1)
	if w.Barrier {
		a := measureAlloc(func() { res.Samples, res.MeasuredS = r.runBarrier(w, in, opt.spans, measured) })
		res.Allocs = []AllocSample{a}
	} else {
		res.Samples, res.Allocs, res.MeasuredS = r.runClosedLoop(w, in, opt.spans, measured)
	}
	opt.spans.end(measured)
	for _, s := range res.Samples {
		if s.Err == nil {
			res.Tokens += w.Prompt + w.Out
		}
	}
	if w.Barrier {
		res.Allocs[0].Tokens = res.Tokens
	}
	if opt.counts {
		after, err := readCounters(r, true)
		if err != nil {
			r.close()
			return res, err
		}
		res.Counts = after.sub(before)
	}

	if opt.ref != nil {
		vs := opt.spans.begin("verify", root, -1)
		res.CheckErrs = opt.ref.checkRound(r, w, in, res.Samples)
		res.Checks, res.FailedChecks = opt.ref.checksPerRound(w), len(res.CheckErrs)
		opt.spans.end(vs)
	}
	return res, r.close()
}

// runClosedLoop sends the client's requests back to back, each only after
// the previous one completed, and reads the heap counters around every
// request (two stop-the-world readings of tens of microseconds against
// requests of 190 ms and more).
func (r *rig) runClosedLoop(w Workload, in RoundInputs, spans *spanLog, parent int) ([]Sample, []AllocSample, float64) {
	var samples []Sample
	var allocs []AllocSample
	t0 := time.Now()
	for _, rq := range in.Clients[0] {
		var s Sample
		a := measureAlloc(func() { s = r.request(w, rq, spans, parent) })
		samples = append(samples, s)
		if s.Err == nil {
			a.Tokens = w.Prompt + w.Out
			allocs = append(allocs, a)
		}
	}
	return samples, allocs, time.Since(t0).Seconds()
}

// runBarrier prefills every client's session one at a time (uncontended
// TTFT), then starts all continuations against a held scheduler and lets
// them go together. Holding the cluster lock while the continuations queue
// — in client order — makes the iteration structure a function of the
// workload alone: iteration k runs client k's one-token chunk fused with the
// decode steps of clients 1..k-1, then every iteration decodes all of them.
func (r *rig) runBarrier(w Workload, in RoundInputs, spans *spanLog, parent int) ([]Sample, float64) {
	n := len(in.Clients)
	samples := make([]Sample, n)
	firsts := make([]int, n)
	t0 := time.Now()
	for c := range in.Clients {
		rq := in.Clients[c][0]
		samples[c].Session = rq.Session
		firsts[c], samples[c].TTFTMs, samples[c].Err = r.prefill(rq, spans, parent)
	}
	var wg sync.WaitGroup
	sched := r.srv.Scheduler()
	sched.WithCluster(func(*transformer.Cluster) {
		for c := range in.Clients {
			if samples[c].Err != nil {
				continue
			}
			_, queued, _ := sched.QueueDepths()
			returned := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(returned)
				s := &samples[c]
				var toks []int
				toks, s.ITLMs, s.GenMs, s.Err = r.generate(s.Session, firsts[c], w.Out, spans, parent)
				s.Tokens = append([]int{firsts[c]}, toks...)
			}()
			// Wait for this continuation to reach the prefill queue before
			// starting the next, so arrival order is client order.
			// (A continuation rejected before queueing returns instead.)
			for arrived := false; !arrived; {
				select {
				case <-returned:
					arrived = true
				default:
					_, now, _ := sched.QueueDepths()
					arrived = now > queued
					time.Sleep(20 * time.Microsecond)
				}
			}
		}
	})
	wg.Wait()
	for c := range samples {
		if err := r.release(samples[c].Session, spans, parent); err != nil && samples[c].Err == nil {
			samples[c].Err = err
		}
	}
	return samples, time.Since(t0).Seconds()
}
