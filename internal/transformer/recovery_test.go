package transformer

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

// replayLog drives a cluster through a prefill + greedy-decode history and
// records everything needed to replay it after a rebuild: the prompt, the
// decode input tokens in order, and every emitted logit row.
type replayLog struct {
	seq     int
	prompt  []int
	decoded []int // decode input tokens, in step order
}

// decodeSteps advances the sequence by n greedy steps starting from `next`,
// returning the logits of each step and the next token after the last.
func decodeSteps(t *testing.T, c *Cluster, seq, next, n int) ([][]float32, int) {
	t.Helper()
	var out [][]float32
	for i := 0; i < n; i++ {
		l, err := c.Decode(seq, next)
		if err != nil {
			t.Fatalf("decode step %d of seq %d: %v", i, seq, err)
		}
		out = append(out, l)
		next = Argmax(l)
	}
	return out, next
}

// replay re-runs a recorded history on a freshly rebuilt cluster: the
// prompt as one prefill (mirroring how it was first submitted) and each
// decode input token as a decode step, exactly the scheduler's token-log
// discipline.
func (r *replayLog) replay(t *testing.T, c *Cluster, variant model.Variant) {
	t.Helper()
	if _, err := c.Prefill(r.seq, r.prompt, variant); err != nil {
		t.Fatalf("replay prefill: %v", err)
	}
	for i, tok := range r.decoded {
		if _, err := c.Decode(r.seq, tok); err != nil {
			t.Fatalf("replay decode step %d: %v", i, err)
		}
	}
}

// TestInProcessRebuildBitIdentity is the in-process fault-injection form of
// the recovery acceptance test: a link fault surfaces as a Failures event
// and a decode error, Rebuild retires the incarnation, a token-log replay
// restores the session, and every post-recovery logit is bit-identical to a
// cluster that never failed.
func TestInProcessRebuildBitIdentity(t *testing.T) {
	cfg := Tiny(31)
	const n = 3
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCluster(w, n)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Short receive timeout so the mid-ring failure surfaces quickly; the
	// deadline never fires on the healthy path, so bit-identity holds.
	victim, err := NewCluster(w2, n, WithRecvTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{4, 19, 22, 7, 31, 2, 55, 40, 13, 26, 39, 52}
	log := &replayLog{seq: 1, prompt: prompt}

	refLogits, err := ref.Prefill(1, prompt, model.PassKV)
	if err != nil {
		t.Fatal(err)
	}
	vicLogits, err := victim.Prefill(1, prompt, model.PassKV)
	if err != nil {
		t.Fatal(err)
	}
	sameLogits(t, "pre-failure prefill", refLogits, vicLogits)

	next := Argmax(refLogits[len(refLogits)-1])
	refSteps, refNext := decodeSteps(t, ref, 1, next, 4)
	vicSteps, vicNext := decodeSteps(t, victim, 1, next, 4)
	for i := range refSteps {
		sameLogits(t, fmt.Sprintf("pre-failure decode %d", i), [][]float32{refSteps[i]}, [][]float32{vicSteps[i]})
	}
	step := next
	for range refSteps {
		log.decoded = append(log.decoded, step)
		step = Argmax(vicSteps[len(log.decoded)-1])
	}

	// Kill a link: detection surfaces as an event, and the next decode
	// fails with a rank-attributed comm error.
	victim.FailLink(0, 1)
	select {
	case ev := <-victim.Failures():
		if ev.Cause == nil {
			t.Fatal("failure event without a cause")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no failure event after FailLink")
	}
	if _, err := victim.Decode(1, vicNext); err == nil {
		t.Fatal("decode over a failed link succeeded")
	}

	// Epoch rebuild + replay: the new incarnation starts empty, the replay
	// restores the session's KV with the original placement.
	if victim.Epoch() != 1 {
		t.Fatalf("epoch before rebuild = %d", victim.Epoch())
	}
	if err := victim.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if victim.Epoch() != 2 {
		t.Fatalf("epoch after rebuild = %d", victim.Epoch())
	}
	if victim.SeqLen(1) != 0 {
		t.Fatalf("rebuilt cluster still holds %d tokens for seq 1", victim.SeqLen(1))
	}
	log.replay(t, victim, model.PassKV)
	if got, want := victim.SeqLen(1), len(prompt)+len(log.decoded); got != want {
		t.Fatalf("replayed seq length %d, want %d", got, want)
	}

	// The recovered stream continues bit-identically to the unfailed
	// reference.
	refPost, _ := decodeSteps(t, ref, 1, refNext, 6)
	vicPost, _ := decodeSteps(t, victim, 1, vicNext, 6)
	for i := range refPost {
		sameLogits(t, fmt.Sprintf("post-recovery decode %d", i), [][]float32{refPost[i]}, [][]float32{vicPost[i]})
	}
}

// startRejoinWorkers spins up n worker ranks as goroutines running the
// rejoin loop: when the coordinator hangs up for an epoch rebuild they
// rejoin the mesh at the next epoch instead of exiting.
func startRejoinWorkers(t *testing.T, cfg Config, n int) ([]string, *sync.WaitGroup, []error) {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorkerLoop(WorkerConfig{
				Transformer: cfg, Rank: i, World: n,
				Listener: listeners[i], Addrs: addrs,
				Rejoin: true, MaxRejoins: 8,
				RendezvousTimeout: 20 * time.Second,
			})
		}(i)
	}
	return addrs, &wg, errs
}

// TestLoopbackEpochRebuild exercises the distributed recovery machinery
// minus process isolation: the coordinator's control plane dies, the rejoin
// workers re-mesh at epoch 2, and the rebuilt cluster replays to bit
// identity against an unfailed in-process reference.
func TestLoopbackEpochRebuild(t *testing.T) {
	cfg := Tiny(17)
	const n = 3
	addrs, wg, workerErrs := startRejoinWorkers(t, cfg, n)
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := ConnectCluster(w, ConnectConfig{Addrs: addrs, DialTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	refW, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCluster(refW, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		dist.Close()
		wg.Wait()
		for i, err := range workerErrs {
			if err != nil {
				t.Errorf("worker %d exited with: %v", i, err)
			}
		}
	})

	prompt := []int{9, 3, 44, 17, 28, 5, 61, 12, 50, 7, 33, 20, 41, 2, 16, 38}
	log := &replayLog{seq: 5, prompt: prompt}
	a, err := ref.Prefill(5, prompt, model.Auto)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dist.Prefill(5, prompt, model.Auto)
	if err != nil {
		t.Fatal(err)
	}
	sameLogits(t, "pre-failure prefill", a, b)
	next := Argmax(a[len(a)-1])
	refSteps, refNext := decodeSteps(t, ref, 5, next, 3)
	distSteps, distNext := decodeSteps(t, dist, 5, next, 3)
	step := next
	for i := range distSteps {
		sameLogits(t, fmt.Sprintf("pre-failure decode %d", i), [][]float32{refSteps[i]}, [][]float32{distSteps[i]})
		log.decoded = append(log.decoded, step)
		step = Argmax(distSteps[i])
	}

	// Simulate a coordinator-visible cluster death: the control plane hangs
	// up. Workers observe the hangup and rejoin the mesh at epoch 2.
	dist.plane.hangup()
	if _, err := dist.Decode(5, distNext); err == nil {
		t.Fatal("decode over a hung-up control plane succeeded")
	}
	if err := dist.Rebuild(); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if dist.Epoch() != 2 {
		t.Fatalf("epoch after rebuild = %d, want 2", dist.Epoch())
	}
	log.replay(t, dist, model.Auto)

	refPost, _ := decodeSteps(t, ref, 5, refNext, 5)
	distPost, _ := decodeSteps(t, dist, 5, distNext, 5)
	for i := range refPost {
		sameLogits(t, fmt.Sprintf("post-rebuild decode %d", i), [][]float32{refPost[i]}, [][]float32{distPost[i]})
	}
	// The rebuilt plane serves telemetry (fresh counters, tcp transport).
	tel, err := dist.Telemetry()
	if err != nil {
		t.Fatalf("telemetry after rebuild: %v", err)
	}
	if tel.Transport != "tcp" {
		t.Fatalf("transport after rebuild = %q", tel.Transport)
	}
}

// ---- exec-based kill: the acceptance-criterion form of the test. ----

const rejoinWorkerEnv = "CP_TEST_REJOIN_WORKER"
const rejoinWorkerAddrsEnv = "CP_TEST_REJOIN_ADDRS"

// TestHelperRejoinWorker is not a test: it is the rejoin-worker body the
// kill-recovery test execs. With CP_TEST_REJOIN_ADDRS set it joins a known
// address list directly (how a respawned replacement rank starts);
// otherwise it rendezvouses over stdin/stdout.
func TestHelperRejoinWorker(t *testing.T) {
	env := os.Getenv(rejoinWorkerEnv)
	if env == "" {
		t.Skip("helper process body; set " + rejoinWorkerEnv)
	}
	parts := strings.Split(env, "/") // rank/world/seed
	rank, _ := strconv.Atoi(parts[0])
	world, _ := strconv.Atoi(parts[1])
	seed, _ := strconv.ParseInt(parts[2], 10, 64)
	cfg := WorkerConfig{
		Transformer: Tiny(seed), Rank: rank, World: world,
		Rejoin: true, MaxRejoins: 8,
		RendezvousTimeout: 30 * time.Second,
	}
	if addrs := os.Getenv(rejoinWorkerAddrsEnv); addrs != "" {
		cfg.Addrs = strings.Split(addrs, ",")
		cfg.Listen = cfg.Addrs[rank]
	} else {
		cfg.Listen = "127.0.0.1:0"
		cfg.AddrOut = os.Stdout
		cfg.AddrIn = os.Stdin
	}
	if err := RunWorkerLoop(cfg); err != nil {
		t.Fatalf("rejoin worker rank %d: %v", rank, err)
	}
}

// TestExecKillRankRecovery is the ISSUE's kill-a-real-process acceptance
// test: three rejoin workers in separate OS processes serve a session
// mid-decode; one is SIGKILLed; the survivors report the dead peer; a
// replacement process is spawned cold (it adopts the new epoch at
// handshake); the coordinator rebuilds and replays; and the recovered
// decode stream is bit-identical to a cluster that never failed.
func TestExecKillRankRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	const n = 3
	const seed = 23
	cfg := Tiny(seed)
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot re-exec test binary: %v", err)
	}
	worker := func(rank int) *exec.Cmd {
		cmd := exec.Command(exe, "-test.run=TestHelperRejoinWorker$", "-test.v=false")
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d/%d/%d", rejoinWorkerEnv, rank, n, seed))
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		return cmd
	}
	cmds := make([]*exec.Cmd, n)
	for i := range cmds {
		cmds[i] = worker(i)
	}
	// The helper's test output (t.Fatalf goes to its stdout, not stderr)
	// reaches stderr, so a silent worker death is diagnosable.
	addrs, err := StartWorkers(cmds)
	if err != nil {
		t.Fatal(err)
	}

	wts, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := ConnectCluster(wts, ConnectConfig{Addrs: addrs, DialTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	refW, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCluster(refW, n)
	if err != nil {
		t.Fatal(err)
	}

	prompt := []int{4, 19, 22, 7, 31, 2, 55, 40, 13, 26, 39, 52, 1, 14, 27, 33}
	log := &replayLog{seq: 9, prompt: prompt}
	a, err := ref.Prefill(9, prompt, model.Auto)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dist.Prefill(9, prompt, model.Auto)
	if err != nil {
		t.Fatal(err)
	}
	sameLogits(t, "pre-kill prefill", a, b)
	next := Argmax(a[len(a)-1])
	_, refNext := decodeSteps(t, ref, 9, next, 3)
	distSteps, distNext := decodeSteps(t, dist, 9, next, 3)
	step := next
	for i := range distSteps {
		log.decoded = append(log.decoded, step)
		step = Argmax(distSteps[i])
	}

	// Kill rank 1 mid-stream, for real.
	if err := cmds[1].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmds[1].Wait()

	// Detection: a surviving worker notices the dead peer within a couple
	// of heartbeat periods and reports it on the control plane — while the
	// coordinator is completely idle.
	select {
	case ev := <-dist.Failures():
		t.Logf("failure event: rank %d: %v", ev.Peer, ev.Cause)
	case <-time.After(15 * time.Second):
		t.Fatal("no failure event after killing rank 1")
	}

	// Respawn the dead rank cold (epoch 1 default: it learns the current
	// epoch from its peers' handshakes) and rebuild on the next epoch.
	replacement := worker(1)
	replacement.Env = append(replacement.Env, fmt.Sprintf("%s=%s", rejoinWorkerAddrsEnv, strings.Join(addrs, ",")))
	replacement.Stdout, replacement.Stderr = os.Stderr, os.Stderr
	if err := replacement.Start(); err != nil {
		t.Fatalf("starting the replacement worker: %v", err)
	}
	if err := dist.Rebuild(); err != nil {
		t.Fatalf("rebuild after kill: %v", err)
	}
	if dist.Epoch() != 2 {
		t.Fatalf("epoch after rebuild = %d, want 2", dist.Epoch())
	}
	log.replay(t, dist, model.Auto)

	// The recovered stream is bit-identical to the never-failed reference.
	refPost, _ := decodeSteps(t, ref, 9, refNext, 6)
	distPost, _ := decodeSteps(t, dist, 9, distNext, 6)
	for i := range refPost {
		sameLogits(t, fmt.Sprintf("post-kill decode %d", i), [][]float32{refPost[i]}, [][]float32{distPost[i]})
	}

	// Orderly shutdown reaches the survivors and the replacement alike.
	if err := dist.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	for i, cmd := range []*exec.Cmd{cmds[0], cmds[2], replacement} {
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("worker %d exit: %v", i, err)
			}
		case <-time.After(20 * time.Second):
			t.Errorf("worker %d did not exit after shutdown", i)
		}
	}
}
