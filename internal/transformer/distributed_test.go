package transformer

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/wire"
	"repro/internal/model"
)

// startLoopbackCluster spins up n worker ranks as goroutines, each with its
// own Weights replica and its own TCP transport endpoint on 127.0.0.1 —
// the full distributed stack (wire codec, mesh rendezvous, control plane)
// minus process isolation — and returns the connected coordinator Cluster.
func startLoopbackCluster(t *testing.T, cfg Config, n, kvCapacity int) *Cluster {
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
	workerErrs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = RunWorker(WorkerConfig{
				Transformer: cfg, Rank: i, World: n,
				Listener: listeners[i], Addrs: addrs,
				KVCapacity:        kvCapacity,
				RendezvousTimeout: 20 * time.Second,
			})
		}(i)
	}
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := ConnectCluster(w, ConnectConfig{Addrs: addrs, KVCapacity: kvCapacity, DialTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		wg.Wait()
		for i, err := range workerErrs {
			if err != nil {
				t.Errorf("worker %d exited with: %v", i, err)
			}
		}
	})
	return cl
}

func sameLogits(t *testing.T, what string, a, b [][]float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d logit rows", what, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s row %d: %d vs %d logits", what, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				t.Fatalf("%s row %d logit %d: %x vs %x (%g vs %g)",
					what, i, j, math.Float32bits(a[i][j]), math.Float32bits(b[i][j]), a[i][j], b[i][j])
			}
		}
	}
}

// driveBoth runs the same operation against the in-process reference and
// the distributed cluster and asserts exact float equality.
type pairedClusters struct {
	t    *testing.T
	ref  *Cluster // in-process
	dist *Cluster // TCP workers
}

func (p *pairedClusters) prefill(seq int, tokens []int, v model.Variant, what string) {
	p.t.Helper()
	a, err := p.ref.Prefill(seq, tokens, v)
	if err != nil {
		p.t.Fatalf("%s (in-process): %v", what, err)
	}
	b, err := p.dist.Prefill(seq, tokens, v)
	if err != nil {
		p.t.Fatalf("%s (distributed): %v", what, err)
	}
	sameLogits(p.t, what, a, b)
}

func (p *pairedClusters) decodeBatch(seqs, tokens []int, what string) {
	p.t.Helper()
	a, err := p.ref.DecodeBatch(seqs, tokens)
	if err != nil {
		p.t.Fatalf("%s (in-process): %v", what, err)
	}
	b, err := p.dist.DecodeBatch(seqs, tokens)
	if err != nil {
		p.t.Fatalf("%s (distributed): %v", what, err)
	}
	sameLogits(p.t, what, a, b)
}

// TestDistributedBitIdentity is the subsystem's non-negotiable invariant: a
// cluster whose ranks live behind the TCP transport and wire codec produces
// exactly the float-for-float logits and decode streams of the in-process
// mailbox World — across pass-KV, pass-Q, model.Auto, fused multi-session
// decode, and warm (prefix-adopted) prefill.
func TestDistributedBitIdentity(t *testing.T) {
	cfg := Tiny(7)
	const n = 3
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCluster(w, n)
	if err != nil {
		t.Fatal(err)
	}
	dist := startLoopbackCluster(t, cfg, n, 0)
	p := &pairedClusters{t: t, ref: ref, dist: dist}

	prompt := func(len_, stride int) []int {
		out := make([]int, len_)
		for i := range out {
			out[i] = (i*stride + 3) % cfg.Model.VocabSize
		}
		return out
	}

	// Cold prefill on every ring variant, including a chunked (multi-call)
	// prefill so cached context P > 0 paths run.
	p.prefill(1, prompt(40, 5), model.PassKV, "cold pass-KV prefill")
	p.prefill(2, prompt(33, 7), model.PassQ, "cold pass-Q prefill")
	p.prefill(3, prompt(25, 11), model.Auto, "cold auto prefill")
	p.prefill(1, prompt(17, 13), model.PassKV, "second-turn pass-KV chunk")
	p.prefill(2, prompt(9, 3), model.PassQ, "second-turn pass-Q chunk")

	// Fused multi-session decode: every sequence advances through one ring
	// sweep per step; owner rotation and merge order must replay exactly.
	toks := []int{5, 9, 13}
	for step := 0; step < 8; step++ {
		p.decodeBatch([]int{1, 2, 3}, toks, fmt.Sprintf("fused decode step %d", step))
		for i := range toks {
			toks[i] = (toks[i]*7 + step) % cfg.Model.VocabSize
		}
	}

	// Drop and re-prefill a sequence id: eviction must propagate to workers.
	ref.Drop(2)
	dist.Drop(2)
	p.prefill(2, prompt(21, 7), model.Auto, "re-prefill after drop")

	// Warm prefix-cache path: chunk a donor's prompt at a canonical
	// boundary, detach the first chunk, drop the donor, adopt into a fresh
	// sequence, and prefill only the miss suffix. The adopted KV must replay
	// the donor's placement bit for bit on both deployments.
	donor := prompt(64, 9)
	p.prefill(10, donor[:32], model.PassKV, "donor chunk 1")
	p.prefill(10, donor[32:], model.PassKV, "donor chunk 2")
	refPre, err := ref.DetachPrefix(10, 32)
	if err != nil {
		t.Fatalf("detach (in-process): %v", err)
	}
	distPre, err := dist.DetachPrefix(10, 32)
	if err != nil {
		t.Fatalf("detach (distributed): %v", err)
	}
	if refPre.Tokens() != distPre.Tokens() {
		t.Fatalf("detached %d vs %d tokens", refPre.Tokens(), distPre.Tokens())
	}
	ref.Drop(10)
	dist.Drop(10)
	suffix := append(append([]int(nil), donor[32:]...), prompt(16, 5)...)
	aw, err := ref.PrefillFrom(11, refPre, suffix, model.Auto)
	if err != nil {
		t.Fatalf("warm prefill (in-process): %v", err)
	}
	bw, err := dist.PrefillFrom(11, distPre, suffix, model.Auto)
	if err != nil {
		t.Fatalf("warm prefill (distributed): %v", err)
	}
	sameLogits(t, "warm prefix-adopted prefill", aw, bw)
	wtoks := []int{2}
	for step := 0; step < 4; step++ {
		p.decodeBatch([]int{11}, wtoks, fmt.Sprintf("warm decode step %d", step))
		wtoks[0] = (wtoks[0]*5 + 1) % cfg.Model.VocabSize
	}
	refPre.Release()
	distPre.Release()

	// The modeled comm accounting is part of the contract too: both
	// deployments executed the identical collective schedule, so their
	// accounted bytes must agree exactly.
	intBefore, rejBefore := wire.IntegrityStats()
	refTel, err := ref.Telemetry()
	if err != nil {
		t.Fatal(err)
	}
	intAfter, rejAfter := wire.IntegrityStats()
	distTel, err := dist.Telemetry()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[comm.Kind]bool{}
	for kind := range refTel.Comm.Messages {
		kinds[kind] = true
	}
	for kind := range distTel.Comm.Messages {
		kinds[kind] = true
	}
	for kind := range kinds {
		if distTel.Comm.Messages[kind] != refTel.Comm.Messages[kind] {
			t.Errorf("comm %s messages: in-process %d, distributed %d", kind, refTel.Comm.Messages[kind], distTel.Comm.Messages[kind])
		}
		if distTel.Comm.Bytes[kind] != refTel.Comm.Bytes[kind] {
			t.Errorf("comm %s bytes: in-process %v, distributed %v", kind, refTel.Comm.Bytes[kind], distTel.Comm.Bytes[kind])
		}
	}
	if refTel.Assembly != distTel.Assembly {
		t.Errorf("assembly counters: in-process %+v, distributed %+v", refTel.Assembly, distTel.Assembly)
	}
	// Modelled per-link traffic, rank links only (Src -1 is the TCP control
	// plane, which the in-process cluster does not have).
	type modelled struct {
		msgs  int64
		bytes float64
	}
	links := func(tel Telemetry) map[[2]int]modelled {
		out := map[[2]int]modelled{}
		for _, l := range tel.Links {
			if l.Src >= 0 {
				out[[2]int{l.Src, l.Dst}] = modelled{l.Messages, l.Bytes}
			}
		}
		return out
	}
	refLinks, distLinks := links(refTel), links(distTel)
	if len(refLinks) != n*(n-1) || len(distLinks) != len(refLinks) {
		t.Errorf("rank links: in-process %d, distributed %d, want %d", len(refLinks), len(distLinks), n*(n-1))
	}
	for key, l := range refLinks {
		if distLinks[key] != l {
			t.Errorf("link %v modelled traffic: in-process %+v, distributed %+v", key, l, distLinks[key])
		}
	}
	// One process hosts the whole in-process cluster, so its process-global
	// CRC counters are reported once — not once per engine. (The loopback
	// workers share this process and keep heartbeating, hence the window.)
	if refTel.IntegrityChecked < intBefore || refTel.IntegrityChecked > intAfter || intBefore == 0 {
		t.Errorf("in-process integrity checked = %d, want the process counter once (%d..%d)", refTel.IntegrityChecked, intBefore, intAfter)
	}
	if refTel.IntegrityRejected < rejBefore || refTel.IntegrityRejected > rejAfter {
		t.Errorf("in-process integrity rejected = %d, want the process counter once (%d..%d)", refTel.IntegrityRejected, rejBefore, rejAfter)
	}
	if distTel.Transport != "tcp" {
		t.Errorf("distributed transport = %q", distTel.Transport)
	}
	var wireBytes int64
	for _, l := range distTel.Links {
		wireBytes += l.WireBytes
	}
	if wireBytes == 0 {
		t.Error("distributed cluster reports zero wire bytes")
	}
	for r, kv := range refTel.RankKV {
		if distTel.RankKV[r] != kv {
			t.Errorf("rank %d KV tokens: in-process %d, distributed %d", r, kv, distTel.RankKV[r])
		}
	}
}

// TestDistributedGenerateStream checks the decode-stream form of the
// guarantee: greedy generation token ids match exactly, end to end.
func TestDistributedGenerateStream(t *testing.T) {
	cfg := Tiny(3)
	const n = 3
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCluster(w, n)
	if err != nil {
		t.Fatal(err)
	}
	dist := startLoopbackCluster(t, cfg, n, 0)
	prompt := []int{4, 19, 22, 7, 31, 2, 55, 40}
	a, err := ref.Generate(1, prompt, 24, model.Auto)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dist.Generate(1, prompt, 24, model.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("stream lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decode streams diverge at step %d: %v vs %v", i, a, b)
		}
	}
}

// TestDistributedCapacityParity checks that the coordinator-side admission
// greedy (fed by control-plane capacity queries) sheds exactly the same
// sequences as the in-process precheck.
func TestDistributedCapacityParity(t *testing.T) {
	cfg := Tiny(5)
	const n, capTokens = 2, 24
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCluster(w, n, WithKVCapacity(capTokens))
	if err != nil {
		t.Fatal(err)
	}
	dist := startLoopbackCluster(t, cfg, n, capTokens)

	run := func(c *Cluster) []error {
		var errs []error
		_, err := c.Prefill(1, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, model.PassKV)
		errs = append(errs, err)
		// Second sequence overflows the per-rank budget.
		_, err = c.Prefill(2, make([]int, 40), model.PassKV)
		errs = append(errs, err)
		return errs
	}
	refErrs := run(ref)
	distErrs := run(dist)
	for i := range refErrs {
		re, de := refErrs[i], distErrs[i]
		if (re == nil) != (de == nil) {
			t.Fatalf("op %d: in-process err %v, distributed err %v", i, re, de)
		}
		if re != nil && re.Error() != de.Error() {
			t.Fatalf("op %d: error text %q vs %q", i, re.Error(), de.Error())
		}
	}
	if refErrs[1] == nil {
		t.Fatal("overflow prefill unexpectedly fit")
	}
	if !strings.Contains(refErrs[1].Error(), "KV capacity exhausted") {
		t.Fatalf("overflow error = %v", refErrs[1])
	}
}

// TestDistributedWorkerErrorSurfaces checks the failure path: a worker-side
// execution error comes back as a named rank error on the coordinator, and
// the cluster keeps serving afterwards.
func TestDistributedWorkerErrorSurfaces(t *testing.T) {
	cfg := Tiny(2)
	w, err := NewWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewCluster(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *Cluster
	}{{"in-process", mem}, {"distributed", startLoopbackCluster(t, cfg, 2, 0)}} {
		c := tc.c
		if _, err := c.DetachPrefix(99, 5); err == nil {
			t.Fatalf("%s: detach of unknown sequence succeeded", tc.name)
		}
		// A handle whose id no rank's registry holds passes every
		// coordinator-side check and fails inside rankEngine.adopt: the error
		// has to come back through handle's reply, named by rank, on both
		// planes.
		forged := &PrefixKV{tokens: 5, id: 12345, c: c, epoch: c.epoch}
		err := c.AdoptPrefix(7, forged)
		if err == nil || !strings.HasPrefix(err.Error(), "rank 0: ") || !strings.Contains(err.Error(), "unknown prefix id 12345") {
			t.Fatalf("%s: adopt of a forged prefix = %v, want rank 0's engine error", tc.name, err)
		}
		// The cluster still works after the errors.
		if _, err := c.Prefill(1, []int{1, 2, 3, 4, 5}, model.PassKV); err != nil {
			t.Fatalf("%s: prefill after failed detach and adopt: %v", tc.name, err)
		}
	}
}

// ---- 3-process loopback: the acceptance-criterion form of the test. ----

const rankWorkerEnv = "CP_TEST_RANK_WORKER"

// TestHelperRankWorker is not a test: it is the worker body the 3-process
// test execs (standard helper-process pattern). It rendezvouses over
// stdin/stdout.
func TestHelperRankWorker(t *testing.T) {
	env := os.Getenv(rankWorkerEnv)
	if env == "" {
		t.Skip("helper process body; set " + rankWorkerEnv)
	}
	parts := strings.Split(env, "/") // rank/world/seed
	rank, _ := strconv.Atoi(parts[0])
	world, _ := strconv.Atoi(parts[1])
	seed, _ := strconv.ParseInt(parts[2], 10, 64)
	err := RunWorker(WorkerConfig{
		Transformer: Tiny(seed), Rank: rank, World: world,
		Listen: "127.0.0.1:0", AddrOut: os.Stdout, AddrIn: os.Stdin,
		RendezvousTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("worker rank %d: %v", rank, err)
	}
}

// TestThreeProcessBitIdentity launches three cprank worker processes (the
// test binary re-execed in helper mode), connects a coordinator cluster to
// them over localhost TCP, and checks exact logit and decode-stream
// equality against the in-process reference — the ISSUE's acceptance
// criterion, with real address-space isolation.
func TestThreeProcessBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	const n = 3
	const seed = 12
	cfg := Tiny(seed)

	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot re-exec test binary: %v", err)
	}
	type worker struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
		out   *bufio.Reader
	}
	workers := make([]*worker, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-test.run=TestHelperRankWorker$", "-test.v=false")
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d/%d/%d", rankWorkerEnv, i, n, seed))
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			t.Fatal(err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting worker %d: %v", i, err)
		}
		w := &worker{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
		workers[i] = w
		t.Cleanup(func() {
			w.cmd.Process.Kill()
			w.cmd.Wait()
		})
		// The worker prints its bound address before joining the mesh.
		for {
			line, err := w.out.ReadString('\n')
			if err != nil {
				t.Fatalf("worker %d exited before printing its address: %v", i, err)
			}
			if strings.HasPrefix(line, "CPRANK_ADDR ") {
				addrs[i] = strings.TrimSpace(strings.TrimPrefix(line, "CPRANK_ADDR "))
				break
			}
		}
	}
	list := strings.Join(addrs, ",") + "\n"
	for _, w := range workers {
		if _, err := io.WriteString(w.stdin, list); err != nil {
			t.Fatal(err)
		}
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
	for _, variant := range []model.Variant{model.PassKV, model.PassQ, model.Auto} {
		seq := 100 + int(variant)
		a, err := ref.Prefill(seq, prompt, variant)
		if err != nil {
			t.Fatalf("in-process %v prefill: %v", variant, err)
		}
		b, err := dist.Prefill(seq, prompt, variant)
		if err != nil {
			t.Fatalf("distributed %v prefill: %v", variant, err)
		}
		sameLogits(t, fmt.Sprintf("3-process %v prefill", variant), a, b)
	}
	a, err := ref.Generate(200, prompt, 16, model.Auto)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dist.Generate(200, prompt, 16, model.Auto)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("3-process decode stream diverges at %d: %v vs %v", i, a, b)
		}
	}

	if err := dist.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	for i, w := range workers {
		done := make(chan error, 1)
		go func() { done <- w.cmd.Wait() }()
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

// TestDistributedPlanePoisonedAfterFailure pins the control-plane ordering
// invariant: replies match commands by stream order, so after any control
// failure the plane must refuse further commands (fail fast, named cause)
// rather than risk reading a stale reply as the next command's result.
func TestDistributedPlanePoisonedAfterFailure(t *testing.T) {
	cfg := Tiny(4)
	dist := startLoopbackCluster(t, cfg, 2, 0)
	if _, err := dist.Prefill(1, []int{1, 2, 3}, model.PassKV); err != nil {
		t.Fatal(err)
	}
	// Hang up the control plane out from under the cluster.
	dist.Close()
	_, err := dist.Prefill(2, []int{4, 5, 6}, model.PassKV)
	if err == nil {
		t.Fatal("prefill succeeded over a closed control plane")
	}
	_, err2 := dist.Prefill(3, []int{7, 8, 9}, model.PassKV)
	if err2 == nil {
		t.Fatal("second prefill succeeded over a poisoned plane")
	}
	if !strings.Contains(err2.Error(), "control plane is down") {
		t.Fatalf("poisoned-plane error = %v, want fail-fast with cause", err2)
	}
}
