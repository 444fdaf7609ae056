package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/comm/wire"
	"repro/internal/tensor"
	"repro/internal/testsupport"
	"repro/internal/trace"
	"repro/internal/transformer"
)

// Every number /v1/stats and /metrics both report is one count: after a
// deadline expires in the admission queue, a session adopts a cached prefix
// and then fails because its first suffix chunk finds no KV room, a rank
// failure is recovered by a rebuild that replays a session, and a brownout
// sheds a new session, each /v1/stats figure equals its /metrics sample.
//
// The server runs on two in-process ranks with 64 KV tokens a rank and
// 32-token chunks, so a full chunk puts 16 rows, one page, on each rank. Its
// step loop reads a virtual clock that moves only when the test moves it,
// which holds the brownout verdict off until the test asks for it.
func TestStatsAndMetricsAgree(t *testing.T) {
	srv, err := New(Config{
		Transformer: transformer.Tiny(31),
		Ranks:       2,
		TokenBudget: 32,
		KVCapacity:  64,
		MaxSessions: 3,
		Recover:     true,
		RecvTimeout: 300 * time.Millisecond,
		BrownoutSLO: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clk := &virtualClock{t: srv.started}
	srv.sched.mu.Lock()
	srv.sched.now = clk.Now // before any request, so the loop only ever reads it
	srv.sched.mu.Unlock()
	h := srv.Handler()
	call := func(method, path string, body any, want int) []byte {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(buf)))
		if rec.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, rec.Code, want, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	prefill := func(session int, tokens []int, noCache bool, want int) (next int) {
		t.Helper()
		var res prefillResponse
		body := call(http.MethodPost, "/v1/prefill", prefillRequest{Session: session, Tokens: tokens, NoCache: noCache}, want)
		if want == http.StatusOK {
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatal(err)
			}
		}
		return res.NextToken
	}
	release := func(session int) { call(http.MethodDelete, fmt.Sprintf("/v1/session/%d", session), nil, http.StatusOK) }
	tokens := func(n, seed int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = (i*7 + seed) % 64
		}
		return out
	}

	// A deadline expires while its request waits for one of the three
	// admission slots the other sessions hold.
	for _, id := range []int{10, 12, 13} {
		prefill(id, tokens(4, id), true, http.StatusOK)
	}
	call(http.MethodPost, "/v1/prefill", prefillRequest{Session: 11, Tokens: tokens(4, 11), TimeoutMs: 20}, http.StatusGatewayTimeout)
	for _, id := range []int{10, 12, 13} {
		release(id)
	}

	// Session 1 donates a one-chunk prefix; session 3 adopts it and settles
	// the hit with a one-chunk suffix, and session 4 fills the caches with
	// two chunks of its own. Session 2 then adopts the prefix too, but its
	// first suffix chunk finds no room: the chunk fails, and the adoption is
	// no hit.
	shared := tokens(32, 1)
	prefill(1, shared, false, http.StatusOK)
	release(1)
	next := prefill(3, append(append([]int(nil), shared...), tokens(32, 3)...), false, http.StatusOK)
	prefill(4, tokens(64, 4), true, http.StatusOK)
	prefill(2, append(append([]int(nil), shared...), tokens(32, 2)...), false, http.StatusServiceUnavailable)
	release(4)

	// A dead link fails session 3's next decode step; the scheduler
	// rebuilds the cluster, replays session 3 (which donates its prefix
	// again) and retries the step.
	srv.sched.WithCluster(func(c *transformer.Cluster) { c.FailLink(0, 1) })
	call(http.MethodPost, "/v1/decode", decodeRequest{Session: 3, Token: next}, http.StatusOK)

	// Past the brownout refresh, the queue waits since the first admission
	// exceed the 1 ns SLO, and a new session is shed with Retry-After.
	clk.advance(time.Second)
	call(http.MethodPost, "/v1/generate", generateRequest{Session: 6, Prompt: tokens(4, 6), MaxTokens: 2}, http.StatusTooManyRequests)

	var st statsResponse
	if err := json.Unmarshal(call(http.MethodGet, "/v1/stats", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	samples, err := trace.ParseProm(bytes.NewReader(call(http.MethodGet, "/metrics", nil, http.StatusOK)))
	if err != nil {
		t.Fatal(err)
	}
	metric := func(name string, labels ...string) float64 {
		var sum float64
		for _, s := range samples {
			if s.Name == name && (len(labels) == 0 || s.Labels[labels[0]] == labels[1]) {
				sum += s.Value
			}
		}
		return sum
	}
	for _, c := range []struct {
		stat   string
		got    float64
		metric float64
	}{
		{"batch.prefill_chunks", float64(st.Batch.PrefillChunks), metric("cp_prefill_chunks_total")},
		{"reuse.hits", float64(st.Reuse.Hits), metric("cp_prefix_adopt_total")},
		{"reuse.detached", float64(st.Reuse.Detached), metric("cp_prefix_detach_total")},
		{"recovery.rebuilds", float64(st.Recovery.Rebuilds), metric("cp_recovery_replays_total")},
		{"recovery.epoch", float64(st.Recovery.Epoch), metric("cp_cluster_epoch")},
		{"overload.deadline_expired", float64(st.Overload.DeadlineExpired), metric("cp_overload_deadline_expired_total")},
		{"overload.brownout_shed", float64(st.Overload.BrownoutShed), metric("cp_overload_shed_total")},
		{"overload.retry_after_issued", float64(st.Overload.RetryAfterIssued), metric("cp_overload_retry_after_total")},
		{"queues.prefill", float64(st.QueueStats[ClassPrefill].Executed), metric("cp_queue_wait_seconds_count", "class", "prefill")},
		{"queues.decode", float64(st.QueueStats[ClassDecode].Executed), metric("cp_queue_wait_seconds_count", "class", "decode")},
		{"latency.ttft_seconds.count", float64(st.Latency.TTFT.Count), metric("cp_request_ttft_seconds_count")},
		{"latency.itl_seconds.count", float64(st.Latency.ITL.Count), metric("cp_request_itl_seconds_count")},
		{"latency.step_seconds.count", float64(st.Latency.Step.Count), metric("cp_step_seconds_count")},
		{"integrity.frames_checked", float64(st.Integrity.FramesChecked), metric("cp_integrity_checked_total")},
		{"integrity.frames_rejected", float64(st.Integrity.FramesRejected), metric("cp_integrity_rejected_total")},
		{"chaos.injected_total", float64(st.Chaos.InjectedTotal), metric("cp_chaos_faults_total")},
		{"kernel.pool.jobs", float64(st.Kernel.Pool.Jobs), metric("cp_kernel_pool_total", "field", "jobs")},
		{"kernel.pool.serial_jobs", float64(st.Kernel.Pool.SerialJobs), metric("cp_kernel_pool_total", "field", "serial_jobs")},
		{"kernel.pool.chunks", float64(st.Kernel.Pool.Chunks), metric("cp_kernel_pool_total", "field", "chunks")},
		{"kernel.pool.chunks_stolen", float64(st.Kernel.Pool.ChunksStolen), metric("cp_kernel_pool_total", "field", "chunks_stolen")},
		{"kernel.pool.helped_chunks", float64(st.Kernel.Pool.HelpedChunks), metric("cp_kernel_pool_total", "field", "helped_chunks")},
		{"kernel.matmul.jobs", float64(st.Kernel.Matmul.Jobs), metric("cp_kernel_matmul_total", "field", "jobs")},
		{"kernel.matmul.serial_jobs", float64(st.Kernel.Matmul.SerialJobs), metric("cp_kernel_matmul_total", "field", "serial_jobs")},
		{"kernel.matmul.cells", float64(st.Kernel.Matmul.Cells), metric("cp_kernel_matmul_total", "field", "cells")},
		{"kernel.ring_overlap.steps", float64(st.Kernel.RingOverlap.Steps), metric("cp_kernel_ring_overlap_total", "field", "steps")},
		{"kernel.ring_overlap.hidden_steps", float64(st.Kernel.RingOverlap.Hidden), metric("cp_kernel_ring_overlap_total", "field", "hidden_steps")},
		{"kernel.ring_overlap.sync_steps", float64(st.Kernel.RingOverlap.SyncSteps), metric("cp_kernel_ring_overlap_total", "field", "sync_steps")},
		{"sessions", float64(st.Sessions), metric("cp_sessions_resident")},
		{"sequence", float64(st.Sequence), metric("cp_stats_sequence")},
		{"batch.iterations", float64(st.Batch.Iterations), metric("cp_step_seconds_count")},
		{"batch.prefill_tokens", float64(st.Batch.PrefillTokens), metric("cp_batch_total", "field", "prefill_tokens")},
		{"batch.decode_tokens", float64(st.Batch.DecodeTokens), metric("cp_batch_total", "field", "decode_tokens")},
		{"batch.mixed_iterations", float64(st.Batch.MixedIterations), metric("cp_batch_total", "field", "mixed_iterations")},
		{"batch.occupancy_sum", float64(st.Batch.OccupancySum), metric("cp_batch_total", "field", "occupancy_sum")},
		{"batch.total_iter_ms", st.Batch.TotalIterMs, metric("cp_step_seconds_sum") * 1e3},
		{"queues.prefill.TotalWait", float64(st.QueueStats[ClassPrefill].TotalWait), float64(time.Duration(metric("cp_queue_wait_seconds_sum", "class", "prefill") * float64(time.Second)))},
		{"queues.decode.TotalWait", float64(st.QueueStats[ClassDecode].TotalWait), float64(time.Duration(metric("cp_queue_wait_seconds_sum", "class", "decode") * float64(time.Second)))},
		{"reuse.lookups", float64(st.Reuse.Lookups), metric("cp_reuse_total", "field", "lookups")},
		{"reuse.cached_tokens", float64(st.Reuse.CachedTokens), metric("cp_reuse_total", "field", "cached_tokens")},
		{"reuse.computed_tokens", float64(st.Reuse.ComputedTokens), metric("cp_batch_total", "field", "prefill_tokens")},
		{"reuse.detached_tokens", float64(st.Reuse.DetachedTokens), metric("cp_reuse_total", "field", "detached_tokens")},
		{"reuse.pass_kv_chunks", float64(st.Reuse.PassKVChunks), metric("cp_reuse_total", "field", "pass_kv_chunks")},
		{"reuse.pass_q_chunks", float64(st.Reuse.PassQChunks), metric("cp_reuse_total", "field", "pass_q_chunks")},
		{"reuse.capacity_quarantines", float64(st.Reuse.CapacityQuarantines), metric("cp_reuse_total", "field", "capacity_quarantines")},
		{"recovery.recovered_sessions", float64(st.Recovery.RecoveredSessions), metric("cp_recovery_total", "field", "recovered_sessions")},
		{"recovery.lost_sessions", float64(st.Recovery.LostSessions), metric("cp_recovery_total", "field", "lost_sessions")},
		{"recovery.replayed_tokens", float64(st.Recovery.ReplayedTokens), metric("cp_recovery_total", "field", "replayed_tokens")},
		{"recovery.replay_cached_tokens", float64(st.Recovery.ReplayCachedTokens), metric("cp_recovery_total", "field", "replay_cached_tokens")},
	} {
		if c.got != c.metric {
			t.Errorf("/v1/stats %s = %v, /metrics says %v", c.stat, c.got, c.metric)
		}
	}

	// Each event happened, and the counts follow their one definition: a
	// chunk and its tokens count once its ring pass succeeded (one chunk for
	// each of the first three sessions, the donor and session 3, two for
	// session 4: 12+32+32+64 tokens; not session 2's, nor the replay's),
	// and a hit once its first suffix chunk
	// did (session 3's; not session 2's).
	if st.Batch.PrefillChunks != 7 || st.Reuse.Hits != 1 {
		t.Errorf("prefill_chunks %d and hits %d, want 7 and 1", st.Batch.PrefillChunks, st.Reuse.Hits)
	}
	if st.Batch.PrefillTokens != 140 {
		t.Errorf("prefill_tokens %d, want 140", st.Batch.PrefillTokens)
	}
	// The reuse counters count live traffic only, so the tokens computed on
	// the ring are the live chunks' tokens, and the lookups are the first
	// chunks of sessions 1, 3 and 2 (the others opted out); the replay's are
	// in the recovery block.
	if st.Reuse.ComputedTokens != 140 || st.PrefillSource.ComputedTokens != 140 || st.Reuse.Lookups != 3 {
		t.Errorf("reuse computed_tokens %d, prefill_source computed_tokens %d, lookups %d, want 140, 140 and 3",
			st.Reuse.ComputedTokens, st.PrefillSource.ComputedTokens, st.Reuse.Lookups)
	}
	if st.Reuse.Detached < 2 || st.Recovery.Rebuilds < 1 || st.Recovery.RecoveredSessions < 1 ||
		st.Overload.DeadlineExpired != 1 || st.Overload.BrownoutShed != 1 || st.Overload.RetryAfterIssued != 1 {
		t.Errorf("an event is missing: reuse %+v, recovery %+v, overload %+v", st.Reuse, st.Recovery, st.Overload)
	}
}

// processCounters scrapes srv's /metrics for the process counters the
// follower moves, keyed by family and label.
func processCounters(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	samples, err := trace.ParseProm(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, s := range samples {
		if strings.HasPrefix(s.Name, "cp_integrity_") || strings.HasPrefix(s.Name, "cp_kernel_") || s.Name == "cp_chaos_faults_total" {
			key := s.Name
			for k, v := range s.Labels { // one label at most
				key += "{" + k + "=" + v + "}"
			}
			out[key] = s.Value
		}
	}
	return out
}

// The integrity, chaos and kernel counters of /v1/stats and /metrics follow
// this process's totals. Run alone, the test is a fresh process, so the
// first server to ask reports the process's own totals; a later scrape adds
// only growth, so no series ever falls; and a second server counts only
// what grew after the first one last asked, so the two sum to the process's
// totals.
func TestRobustnessCountersNeverFall(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	const cells = "cp_kernel_matmul_total{field=cells}"
	newServer := func() *Server {
		t.Helper()
		srv, err := New(Config{Transformer: transformer.Tiny(31), Ranks: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}
	generate := func(srv *Server, session int) {
		t.Helper()
		if _, err := srv.Scheduler().Generate(context.Background(), session, []int{4, 19, 22, 7}, 4); err != nil {
			t.Fatal(err)
		}
	}
	// scrape returns srv's process counters, with this process's GEMM cells
	// read before and after.
	scrape := func(srv *Server) (map[string]float64, float64, float64) {
		t.Helper()
		lo := float64(tensor.MatmulSnapshot().Cells)
		got := processCounters(t, srv)
		return got, lo, float64(tensor.MatmulSnapshot().Cells)
	}
	within := func(what string, v, lo, hi float64) {
		t.Helper()
		if v <= 0 || v < lo || v > hi {
			t.Errorf("%s: %v matmul cells, want %v..%v", what, v, lo, hi)
		}
	}
	neverFell := func(what string, prev, cur map[string]float64) {
		t.Helper()
		for k, v := range prev {
			if cur[k] < v {
				t.Errorf("%s: %s fell from %v to %v", what, k, v, cur[k])
			}
		}
	}

	first := newServer()
	generate(first, 1)
	m1, lo1, hi1 := scrape(first)
	within("first server, first scrape", m1[cells], lo1, hi1)
	generate(first, 2)
	m2, lo2, hi2 := scrape(first)
	within("first server, second scrape", m2[cells], lo2, hi2)
	neverFell("first server", m1, m2)

	second := newServer()
	generate(second, 1)
	m3, lo3, hi3 := scrape(second)
	within("second server", m3[cells], lo3-hi2, hi3-lo2)
	m4, lo4, hi4 := scrape(first)
	neverFell("first server, after the second asked", m2, m4)
	within("both servers", m3[cells]+m4[cells], lo4, hi4)
}

// A loopback cluster's workers share the coordinator's process, so the
// frames they CRC-check are this process's: at N = 2 and 3 the server's
// recorder grows by the process counter's growth, not once per worker and
// once more for the coordinator. Run alone, nothing else in the process
// asks for its counters.
func TestLoopbackClusterCountsFramesOnce(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			cfg := transformer.Tiny(29)
			srv, err := New(Config{Transformer: cfg, RankAddrs: startWorkers(t, cfg, n), TokenBudget: 4, DialTimeout: 20 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			// checked scrapes the recorder's CRC-checked frames, with the
			// process counter read before and after.
			checked := func() (lo, got, hi int64) {
				lo, _ = wire.IntegrityStats()
				got = int64(processCounters(t, srv)["cp_integrity_checked_total"])
				hi, _ = wire.IntegrityStats()
				return lo, got, hi
			}
			lo0, got0, hi0 := checked()
			if _, err := srv.Scheduler().Generate(context.Background(), 1, []int{4, 19, 22, 7, 3, 11, 2, 9}, 8); err != nil {
				t.Fatal(err)
			}
			lo1, got1, hi1 := checked()
			if grew := got1 - got0; grew <= 0 || grew < lo1-hi0 || grew > hi1-lo0 {
				t.Errorf("recorder counted %d CRC-checked frames, the process %d..%d", grew, lo1-hi0, hi1-lo0)
			}
		})
	}
}
