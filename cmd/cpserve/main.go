// Command cpserve runs the context-parallel inference server: a tiny
// Llama-architecture transformer distributed across simulated CP ranks
// behind an HTTP/JSON API, driven by an iteration-level continuous-batching
// scheduler (chunked prefill plus cross-session fused ring decode, per the
// paper's §3.6 batched decode and §4.3 deployment guidance).
//
// Usage:
//
//	cpserve -addr :8080 -ranks 4 -token-budget 32 -max-batch 64
//	curl -s localhost:8080/v1/generate -d '{"session":1,"prompt":[4,19,22,7],"max_tokens":8}'
//	curl -s localhost:8080/v1/stats
//
// Distributed mode coordinates cprank worker processes over TCP instead of
// simulating ranks in-process (same API, bit-identical outputs):
//
//	cprank -rank 0 -world 3 -addrs 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002 &
//	cprank -rank 1 -world 3 -addrs 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002 &
//	cprank -rank 2 -world 3 -addrs 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002 &
//	cpserve -distributed -rank-addrs 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux; exposed only under -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/comm/transport"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/server"
	"repro/internal/transformer"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	ranks := flag.Int("ranks", 2, "CP ranks")
	seed := flag.Int64("seed", 1, "weight seed")
	variantName := flag.String("variant", "auto", "prefill ring variant: pass-kv, pass-q, auto (Eq. 1 per-chunk miss-rate selection)")
	tokenBudget := flag.Int("token-budget", 32, "max prompt tokens prefilled per scheduler iteration")
	maxBatch := flag.Int("max-batch", 64, "max sessions fused into one decode ring pass")
	maxSessions := flag.Int("max-sessions", 256, "admission cap on resident sessions")
	maxTokens := flag.Int("max-tokens", 4096, "cap on a single generate's max_tokens")
	prefixCache := flag.Int("prefix-cache", server.DefaultPrefixCacheTokens,
		"token budget of the prefix KV-reuse tree (released sessions detach into it); <= 0 disables")
	kvCapacity := flag.Int("kv-capacity", 0, "per-rank per-layer KV cache capacity in tokens (0 = unlimited)")
	recvTimeout := flag.Duration("recv-timeout", 0, "cluster comm receive deadline (0 = default)")
	workers := flag.Int("workers", 0, "attention kernel worker-pool width (0 = GOMAXPROCS; env CP_WORKERS also applies)")
	distributed := flag.Bool("distributed", false, "coordinate cprank worker processes instead of simulating ranks in-process")
	rankAddrs := flag.String("rank-addrs", "", "comma-separated cprank worker addresses, index = rank id (requires -distributed)")
	dialTimeout := flag.Duration("dial-timeout", 15*time.Second, "distributed control-plane rendezvous deadline")
	recover := flag.Bool("recover", false, "rebuild the cluster on a new epoch after a rank failure and replay live sessions bit-identically (instead of faulting them)")
	maxRecoveries := flag.Int("max-recoveries", 3, "lifetime bound on recovery rebuild attempts (requires -recover)")
	heartbeatEvery := flag.Duration("heartbeat-interval", 0, "the workers' heartbeat interval, which sets the distributed control plane's miss window (0 = default 500ms; negative is an error); must match the workers' -heartbeat-interval")
	heartbeatMisses := flag.Int("heartbeat-misses", 0, "silent heartbeat windows before a worker is declared dead (0 = default 3; 1 is an error; negative disables)")
	brownoutSLO := flag.Duration("brownout-slo", 0, "queue-wait p90 SLO arming brownout overload control: past it, new sessions get 429 + Retry-After (0 = off)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default; profiling endpoints should not ship publicly)")
	traceOut := flag.String("trace-out", "", "write the span trace at shutdown: Chrome-trace JSON if the path ends in .json, deterministic JSONL otherwise")
	noTrace := flag.Bool("no-trace", false, "disable the observability recorder (no /metrics, /v1/trace, or latency histograms; outputs are bit-identical either way)")
	cohortsFlag := flag.String("cohorts", "", "comma-separated workload cohort labels to pre-register for per-cohort latency series (requests tag themselves via the \"cohort\" JSON field)")
	flag.Parse()

	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	var variant model.Variant
	switch *variantName {
	case "pass-kv":
		variant = model.PassKV
	case "pass-q":
		variant = model.PassQ
	case "auto":
		variant = model.Auto
	default:
		fmt.Fprintf(os.Stderr, "cpserve: unknown variant %q\n", *variantName)
		os.Exit(1)
	}
	prefixTokens := *prefixCache
	if prefixTokens <= 0 {
		prefixTokens = -1 // disabled
	}
	if err := transport.CheckHeartbeat(*heartbeatEvery, *heartbeatMisses); err != nil {
		fmt.Fprintf(os.Stderr, "cpserve: %v\n", err)
		os.Exit(1)
	}
	if *brownoutSLO < 0 {
		fmt.Fprintln(os.Stderr, "cpserve: -brownout-slo must be >= 0 (0 disables brownout)")
		os.Exit(1)
	}
	var addrs []string
	if *distributed {
		if *rankAddrs == "" {
			fmt.Fprintln(os.Stderr, "cpserve: -distributed requires -rank-addrs")
			os.Exit(1)
		}
		addrs = strings.Split(*rankAddrs, ",")
		// Validate before rendezvous: a malformed or duplicated address, or
		// a list that contradicts an explicit -ranks, must fail with one
		// clear line instead of a hang or a mid-handshake rejection.
		if err := server.ValidateRankAddrs(addrs); err != nil {
			fmt.Fprintf(os.Stderr, "cpserve: %v\n", err)
			os.Exit(1)
		}
		ranksSet := false
		flag.Visit(func(f *flag.Flag) { ranksSet = ranksSet || f.Name == "ranks" })
		if ranksSet && *ranks != len(addrs) {
			fmt.Fprintf(os.Stderr, "cpserve: -ranks %d does not match %d -rank-addrs entries (world size is the address count)\n",
				*ranks, len(addrs))
			os.Exit(1)
		}
	} else if *rankAddrs != "" {
		fmt.Fprintln(os.Stderr, "cpserve: -rank-addrs requires -distributed")
		os.Exit(1)
	}

	srv, err := server.New(server.Config{
		Transformer:       transformer.Tiny(*seed),
		Ranks:             *ranks,
		Variant:           variant,
		TokenBudget:       *tokenBudget,
		MaxBatch:          *maxBatch,
		MaxSessions:       *maxSessions,
		MaxTokens:         *maxTokens,
		PrefixCacheTokens: prefixTokens,
		KVCapacity:        *kvCapacity,
		RecvTimeout:       *recvTimeout,
		RankAddrs:         addrs,
		DialTimeout:       *dialTimeout,
		Recover:           *recover,
		MaxRecoveries:     *maxRecoveries,
		HeartbeatEvery:    *heartbeatEvery,
		HeartbeatMisses:   *heartbeatMisses,
		BrownoutSLO:       *brownoutSLO,
		NoTrace:           *noTrace,
		Cohorts:           splitCohorts(*cohortsFlag),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	if *traceOut != "" && *noTrace {
		fmt.Fprintln(os.Stderr, "cpserve: -trace-out requires tracing (drop -no-trace)")
		os.Exit(1)
	}

	handler := srv.Handler()
	if *pprofOn {
		// The API keeps its own mux; pprof's handlers live on the default
		// mux, grafted in only when asked for.
		m := http.NewServeMux()
		m.Handle("/", handler)
		m.Handle("/debug/pprof/", http.DefaultServeMux)
		handler = m
		log.Printf("cpserve: pprof enabled on %s/debug/pprof/", *addr)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	// Graceful drain on SIGINT/SIGTERM: in-flight decodes finish their step
	// and return truncated successes, the HTTP layer flushes those responses
	// to their clients, and then the workers get an orderly shutdown command
	// (so cprank -rejoin loops exit instead of waiting for an epoch that
	// never comes).
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("cpserve: %v: draining and shutting down", sig)
		// Dump the trace before Close: the distributed workers still hold
		// their staged spans, and the drain needs the control plane up.
		if *traceOut != "" {
			dumpTrace(srv, *traceOut)
		}
		srv.Close()
		// Wait for in-flight handlers to write their (possibly truncated)
		// responses before the process goes away; bounded so a wedged
		// client cannot hold shutdown hostage.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		os.Exit(0)
	}()

	prefixDesc := "off"
	if prefixTokens > 0 {
		prefixDesc = fmt.Sprintf("%d tok", prefixTokens)
	}
	recoverDesc := "off"
	if *recover {
		recoverDesc = fmt.Sprintf("on (<=%d rebuilds)", *maxRecoveries)
	}
	rankDesc := fmt.Sprintf("%d in-process CP ranks", *ranks)
	if *distributed {
		rankDesc = fmt.Sprintf("%d distributed CP ranks (%s)", len(addrs), *rankAddrs)
	}
	log.Printf("cpserve: %s, %v prefill, budget %d tok/iter, batch<=%d, sessions<=%d, prefix cache %s, recovery %s, %d kernel workers, listening on %s",
		rankDesc, variant, *tokenBudget, *maxBatch, *maxSessions, prefixDesc, recoverDesc, parallel.Workers(), *addr)
	log.Printf(`try: curl -s localhost%s/v1/generate -d '{"session":1,"prompt":[4,19,22,7],"max_tokens":8}'`, *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}

func splitCohorts(s string) []string {
	var out []string
	for _, c := range strings.Split(s, ",") {
		if c = strings.TrimSpace(c); c != "" {
			out = append(out, c)
		}
	}
	return out
}

func dumpTrace(srv *server.Server, path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Printf("cpserve: trace out: %v", err)
		return
	}
	defer f.Close()
	if err := srv.WriteTrace(f, strings.HasSuffix(path, ".json")); err != nil {
		log.Printf("cpserve: trace out: %v", err)
		return
	}
	log.Printf("cpserve: wrote trace to %s", path)
}
