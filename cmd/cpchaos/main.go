// Command cpchaos is the deterministic chaos soak driver: it spawns a
// 3-rank distributed cluster (each rank this binary re-executed in worker
// mode) whose every worker executes the same seeded fault schedule — a slow
// link, a corrupted frame, a network partition, and a rank crash, each
// fired at an exact logical send step — drives a serial generate workload
// through a recovery-armed coordinator, and asserts the robustness
// contract end to end:
//
//   - every session's decode stream is bit-identical to a never-faulted
//     in-process reference run of the same workload;
//   - the corrupted frame was provably detected (wire integrity rejected
//     counter > 0) and contained as a link failure;
//   - recovery rebuilt the cluster at least once and stayed within its
//     budget;
//   - re-running the same seed reproduces identical fault counts, recovery
//     counts, and token streams (chaos runs are replayable);
//   - shutdown is clean: workers exit 0, goroutines return to baseline, and
//     no span producer keeps running after traffic stops.
//
// Run:
//
//	go run ./cmd/cpchaos            # default seed, two runs, ~20s
//	go run ./cmd/cpchaos -seed 7 -metrics-out soak.prom
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"repro/internal/chaos"
	"repro/internal/server"
	"repro/internal/transformer"
)

const (
	workerEnv = "CPCHAOS_RANK"
	schedEnv  = "CPCHAOS_SCHED"
	seedEnv   = "CPCHAOS_SEED"
	ranks     = 3
)

func main() {
	if env := os.Getenv(workerEnv); env != "" {
		runWorker(env)
		return
	}
	if err := runDriver(); err != nil {
		fmt.Fprintf(os.Stderr, "cpchaos: %v\n", err)
		os.Exit(1)
	}
}

// runWorker is the child-process body: one CP rank with the shared fault
// schedule armed on its transport. Every worker receives the full schedule
// and executes the faults it hosts (send-side for link faults, the acting
// rank for crashes and partitions); -rejoin semantics let it survive the
// epoch rebuilds its own faults trigger.
func runWorker(env string) {
	rank, err := strconv.Atoi(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpchaos: bad %s=%q\n", workerEnv, env)
		os.Exit(1)
	}
	seed, err := strconv.ParseInt(os.Getenv(seedEnv), 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpchaos: bad %s=%q\n", seedEnv, os.Getenv(seedEnv))
		os.Exit(1)
	}
	sched, err := chaos.Parse(os.Getenv(schedEnv), ranks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpchaos: %v\n", err)
		os.Exit(1)
	}
	// One injector for the process lifetime: its step clocks persist across
	// rejoin epochs, so faults scheduled past a rebuild still fire on time.
	inj := chaos.NewInjector(sched)
	transformer.WorkerMain(transformer.WorkerConfig{
		Transformer:       transformer.Tiny(seed),
		Rank:              rank,
		World:             ranks,
		Listen:            "127.0.0.1:0",
		RendezvousTimeout: 30 * time.Second,
		Rejoin:            true,
		MaxRejoins:        32,
		WrapTransport:     inj.Wrap,
	})
}

// summary is one soak run's observable outcome — everything that must be
// identical when the same seed runs again.
type summary struct {
	streams    [][]int
	rebuilds   int64
	attempts   int64
	integrity  int64 // frames rejected by the CRC check, cluster-wide
	chaosByKey map[string]int64
}

func runDriver() error {
	seed := flag.Int64("seed", 1, "fault-schedule and weight seed; same seed = same faults, same streams")
	phase := flag.Int64("phase", 64, "logical-step spacing between scheduled faults")
	sessions := flag.Int("sessions", 6, "sequential generate sessions per run")
	promptLen := flag.Int("prompt", 48, "prompt tokens per session")
	maxTokens := flag.Int("max-tokens", 16, "decode steps per session")
	runs := flag.Int("runs", 2, "soak repetitions (>= 2 proves seed replayability)")
	maxRecoveries := flag.Int("max-recoveries", 8, "coordinator recovery budget per run")
	metricsOut := flag.String("metrics-out", "", "dump the final run's Prometheus exposition to this file")
	flag.Parse()

	sched := chaos.Soak(uint64(*seed), ranks, *phase)
	fmt.Printf("cpchaos: seed %d schedule: %s\n", *seed, sched)

	cfg := transformer.Tiny(*seed)
	refStreams, err := referenceStreams(cfg, *sessions, *promptLen, *maxTokens)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	fmt.Printf("cpchaos: reference streams computed in-process (%d sessions x %d tokens)\n", *sessions, *maxTokens)

	baseline := runtime.NumGoroutine()
	var prev *summary
	for run := 1; run <= *runs; run++ {
		out := ""
		if run == *runs {
			out = *metricsOut
		}
		sum, err := soakOnce(cfg, sched, *seed, *sessions, *promptLen, *maxTokens, *maxRecoveries, out)
		if err != nil {
			return fmt.Errorf("run %d: %w", run, err)
		}
		// Bit-identity against the never-faulted reference: recovery replay
		// plus chaos must be invisible in the decode streams.
		for i, want := range refStreams {
			if !equalInts(sum.streams[i], want) {
				return fmt.Errorf("run %d: session %d stream diverged from reference:\n  chaos: %v\n  ref:   %v", run, i+1, sum.streams[i], want)
			}
		}
		// The schedule must actually have bitten: corruption detected by the
		// CRC trailer, at least one rebuild, all within budget, and every
		// scheduled fault kind fired.
		if sum.integrity < 1 {
			return fmt.Errorf("run %d: corrupted frame was never detected (integrity rejected = %d)", run, sum.integrity)
		}
		if sum.rebuilds < 1 {
			return fmt.Errorf("run %d: chaos never forced a rebuild", run)
		}
		if sum.attempts > int64(*maxRecoveries) {
			return fmt.Errorf("run %d: %d recovery attempts exceed budget %d", run, sum.attempts, *maxRecoveries)
		}
		for _, f := range sched.Faults {
			if sum.chaosByKey[string(f.Kind)] < 1 {
				return fmt.Errorf("run %d: scheduled %s fault never fired (counts %v)", run, f.Kind, sum.chaosByKey)
			}
		}
		// Seed replayability: every run must match the first exactly.
		if prev != nil {
			for i := range prev.streams {
				if !equalInts(sum.streams[i], prev.streams[i]) {
					return fmt.Errorf("run %d: session %d stream differs from run %d under the same seed", run, i+1, run-1)
				}
			}
			if sum.rebuilds != prev.rebuilds || sum.attempts != prev.attempts {
				return fmt.Errorf("run %d: recovery counts differ under the same seed: %d/%d vs %d/%d",
					run, sum.rebuilds, sum.attempts, prev.rebuilds, prev.attempts)
			}
			for k, v := range prev.chaosByKey {
				if sum.chaosByKey[k] != v {
					return fmt.Errorf("run %d: %s fault count %d differs from run %d's %d", run, k, sum.chaosByKey[k], run-1, v)
				}
			}
		}
		prev = sum
		if err := settleGoroutines(baseline); err != nil {
			return fmt.Errorf("run %d: %w", run, err)
		}
		fmt.Printf("cpchaos: run %d ok — %d sessions bit-identical, %d rebuilds (%d attempts), %d corrupt frames rejected, faults %v\n",
			run, *sessions, sum.rebuilds, sum.attempts, sum.integrity, sum.chaosByKey)
	}
	fmt.Printf("cpchaos: OK — %d runs, seed %d replayed identically, clean shutdown each time\n", *runs, *seed)
	return nil
}

// referenceStreams runs the identical workload on a never-faulted
// in-process cluster and returns each session's decode stream.
func referenceStreams(cfg transformer.Config, sessions, promptLen, maxTokens int) ([][]int, error) {
	srv, err := server.New(server.Config{Transformer: cfg, Ranks: ranks})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	return driveSessions(srv, cfg, sessions, promptLen, maxTokens)
}

// driveSessions runs the deterministic serial workload: sessions generate
// one after another, so every ring send lands at the same logical step on
// every run — the property that makes the fault schedule replayable.
func driveSessions(srv *server.Server, cfg transformer.Config, sessions, promptLen, maxTokens int) ([][]int, error) {
	streams := make([][]int, sessions)
	for s := 0; s < sessions; s++ {
		prompt := make([]int, promptLen)
		for i := range prompt {
			prompt[i] = (i*7 + s*13 + 5) % cfg.Model.VocabSize
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		res, err := srv.Scheduler().Generate(ctx, s+1, prompt, maxTokens)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", s+1, err)
		}
		streams[s] = res.Tokens
	}
	return streams, nil
}

// soakOnce spawns the worker fleet, runs the workload through a
// recovery-armed distributed coordinator, collects the run summary, and
// tears everything down, insisting on clean worker exits.
func soakOnce(cfg transformer.Config, sched *chaos.Schedule, seed int64, sessions, promptLen, maxTokens, maxRecoveries int, metricsOut string) (*summary, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	workers := make([]*exec.Cmd, ranks)
	for i := range workers {
		workers[i] = exec.Command(exe)
		workers[i].Env = append(os.Environ(),
			fmt.Sprintf("%s=%d", workerEnv, i),
			fmt.Sprintf("%s=%s", schedEnv, sched.String()),
			fmt.Sprintf("%s=%d", seedEnv, seed),
		)
	}
	addrs, err := transformer.StartWorkers(workers)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, cmd := range workers {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	srv, err := server.New(server.Config{
		Transformer:   cfg,
		RankAddrs:     addrs,
		DialTimeout:   30 * time.Second,
		Recover:       true,
		MaxRecoveries: maxRecoveries,
	})
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			srv.Close()
		}
	}()

	sum := &summary{chaosByKey: make(map[string]int64)}
	sum.streams, err = driveSessions(srv, cfg, sessions, promptLen, maxTokens)
	if err != nil {
		return nil, err
	}

	rec := srv.Scheduler().RecoveryStats()
	sum.rebuilds, sum.attempts = rec.Rebuilds, rec.Attempts
	var tel transformer.Telemetry
	var telErr error
	srv.Scheduler().WithCluster(func(c *transformer.Cluster) { tel, telErr = c.Telemetry() })
	if telErr != nil {
		return nil, fmt.Errorf("telemetry: %w", telErr)
	}
	sum.integrity = tel.IntegrityRejected
	for i, kind := range tel.ChaosKinds {
		sum.chaosByKey[kind] = tel.ChaosCounts[i]
	}

	// Span-leak check: traffic has stopped, so a second trace sync must
	// surface zero new spans — anything still producing is a leak.
	if err := srv.WriteTrace(io.Discard, false); err != nil {
		return nil, fmt.Errorf("trace sync: %w", err)
	}
	before := srv.Recorder().SpanCount()
	if err := srv.WriteTrace(io.Discard, false); err != nil {
		return nil, fmt.Errorf("trace re-sync: %w", err)
	}
	if after := srv.Recorder().SpanCount(); after != before {
		return nil, fmt.Errorf("span leak: %d new spans surfaced after traffic stopped", after-before)
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return nil, err
		}
		if err := srv.Recorder().WriteProm(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		log.Printf("cpchaos: wrote metrics to %s", metricsOut)
	}

	// Orderly teardown: Close sends the shutdown command, and every worker —
	// crashes, rejoins and all — must exit cleanly.
	srv.Close()
	closed = true
	for i, cmd := range workers {
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("worker %d exit: %w", i, err)
		}
	}
	workers = nil
	return sum, nil
}

// settleGoroutines waits (bounded) for the goroutine count to return to the
// pre-run baseline; a stable excess is a leaked goroutine.
func settleGoroutines(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: %d alive vs baseline %d", n, baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
