// Command distributed demonstrates the multi-process CP transport: it
// spawns a 3-rank localhost cluster (each rank a separate OS process — this
// binary re-executed in worker mode), drives the identical workload through
// the distributed coordinator and an in-process reference cluster, and
// asserts bit-identical logits and decode streams across pass-KV, pass-Q,
// model.Auto, fused batched decode, and warm prefix-adopted prefill.
//
// It then breaks the measured communication down against the paper's
// Table 2 cost model: the modeled (accounted) ring bytes of a cold pass-KV
// prefill must equal the analytic formula exactly, and the wire-level
// counters show what the TCP framing, metadata, and heartbeats add on top.
//
// Run:
//
//	go run ./examples/distributed
package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/transformer"
)

const (
	workerEnv = "CP_DISTRIBUTED_EXAMPLE_RANK"
	ranks     = 3
	seed      = 21
)

func main() {
	if env := os.Getenv(workerEnv); env != "" {
		runWorker(env)
		return
	}
	if err := runCoordinator(); err != nil {
		fmt.Fprintf(os.Stderr, "distributed: %v\n", err)
		os.Exit(1)
	}
}

// runWorker is the child-process body: one CP rank on an ephemeral port,
// rendezvousing over stdin/stdout.
func runWorker(env string) {
	rank, err := strconv.Atoi(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad %s=%q\n", workerEnv, env)
		os.Exit(1)
	}
	transformer.WorkerMain(transformer.WorkerConfig{
		Transformer:       transformer.Tiny(seed),
		Rank:              rank,
		World:             ranks,
		Listen:            "127.0.0.1:0",
		RendezvousTimeout: 30 * time.Second,
	})
}

func runCoordinator() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("spawning %d cprank worker processes on localhost...\n", ranks)
	type workerProc struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
	}
	workers := make([]*workerProc, ranks)
	addrs := make([]string, ranks)
	for i := 0; i < ranks; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", workerEnv, i))
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("starting worker %d: %w", i, err)
		}
		workers[i] = &workerProc{cmd: cmd, stdin: stdin}
		defer func(w *workerProc) { w.cmd.Process.Kill(); w.cmd.Wait() }(workers[i])
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "CPRANK_ADDR ") {
				addrs[i] = strings.TrimPrefix(sc.Text(), "CPRANK_ADDR ")
				break
			}
		}
		if addrs[i] == "" {
			return fmt.Errorf("worker %d exited before reporting its address", i)
		}
		fmt.Printf("  rank %d: pid %d @ %s\n", i, cmd.Process.Pid, addrs[i])
	}
	list := strings.Join(addrs, ",") + "\n"
	for _, w := range workers {
		if _, err := io.WriteString(w.stdin, list); err != nil {
			return err
		}
	}

	cfg := transformer.Tiny(seed)
	w, err := transformer.NewWeights(cfg)
	if err != nil {
		return err
	}
	dist, err := transformer.ConnectCluster(w, transformer.ConnectConfig{Addrs: addrs, DialTimeout: 30 * time.Second})
	if err != nil {
		return err
	}
	defer dist.Close()
	refW, err := transformer.NewWeights(cfg)
	if err != nil {
		return err
	}
	ref, err := transformer.NewCluster(refW, ranks)
	if err != nil {
		return err
	}
	fmt.Printf("connected: %d-rank distributed cluster (tcp) vs in-process reference (mem)\n\n", ranks)

	m := cfg.Model
	prompt := func(n, stride int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = (i*stride + 5) % m.VocabSize
		}
		return out
	}

	// --- Bit-identity script: every variant, cold and warm, plus decode. ---
	checks := 0
	compare := func(what string, a, b [][]float32) error {
		if len(a) != len(b) {
			return fmt.Errorf("%s: %d vs %d rows", what, len(a), len(b))
		}
		for i := range a {
			for j := range a[i] {
				if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
					return fmt.Errorf("%s: row %d logit %d differs: %g vs %g", what, i, j, a[i][j], b[i][j])
				}
			}
			checks += len(a[i])
		}
		fmt.Printf("  %-42s bit-identical (%d rows)\n", what, len(a))
		return nil
	}
	both := func(what string, seq int, toks []int, v model.Variant) error {
		a, err := ref.Prefill(seq, toks, v)
		if err != nil {
			return fmt.Errorf("%s (in-process): %w", what, err)
		}
		b, err := dist.Prefill(seq, toks, v)
		if err != nil {
			return fmt.Errorf("%s (distributed): %w", what, err)
		}
		return compare(what, a, b)
	}

	fmt.Println("cold prefill:")
	// 60 tokens = 2*ranks*10 slots: every rank gets an exactly equal shard,
	// which makes the Table 2 comparison below exact.
	const T = 60
	if err := both("pass-KV prefill (60 tok)", 1, prompt(T, 7), model.PassKV); err != nil {
		return err
	}
	if err := both("pass-Q prefill (33 tok)", 2, prompt(33, 11), model.PassQ); err != nil {
		return err
	}
	if err := both("auto prefill (25 tok)", 3, prompt(25, 13), model.Auto); err != nil {
		return err
	}

	fmt.Println("fused batched decode (3 sessions, 12 steps):")
	toks := []int{3, 17, 29}
	for step := 0; step < 12; step++ {
		a, err := ref.DecodeBatch([]int{1, 2, 3}, toks)
		if err != nil {
			return err
		}
		b, err := dist.DecodeBatch([]int{1, 2, 3}, toks)
		if err != nil {
			return err
		}
		for i := range a {
			for j := range a[i] {
				if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
					return fmt.Errorf("decode step %d seq %d logit %d differs", step, i, j)
				}
			}
			if transformer.Argmax(a[i]) != transformer.Argmax(b[i]) {
				return fmt.Errorf("decode streams diverge at step %d", step)
			}
			toks[i] = transformer.Argmax(a[i])
			checks += len(a[i])
		}
	}
	fmt.Printf("  %-42s bit-identical (36 steps fused)\n", "decode logits + greedy streams")

	fmt.Println("warm prefix-cache prefill (detach -> adopt):")
	donor := prompt(64, 9)
	if err := both("donor chunk [0:32)", 10, donor[:32], model.PassKV); err != nil {
		return err
	}
	if err := both("donor chunk [32:64)", 10, donor[32:], model.PassKV); err != nil {
		return err
	}
	refPre, err := ref.DetachPrefix(10, 32)
	if err != nil {
		return err
	}
	distPre, err := dist.DetachPrefix(10, 32)
	if err != nil {
		return err
	}
	ref.Drop(10)
	dist.Drop(10)
	suffix := append(append([]int(nil), donor[32:]...), prompt(16, 3)...)
	aw, err := ref.PrefillFrom(11, refPre, suffix, model.Auto)
	if err != nil {
		return err
	}
	bw, err := dist.PrefillFrom(11, distPre, suffix, model.Auto)
	if err != nil {
		return err
	}
	if err := compare("warm prefill from adopted prefix", aw, bw); err != nil {
		return err
	}
	refPre.Release()
	distPre.Release()

	// --- Table 2 communication-cost comparison. ---
	// Reset-free: measure one isolated cold pass-KV prefill on fresh ids.
	telBefore, err := dist.Telemetry()
	if err != nil {
		return err
	}
	if _, err := ref.Prefill(20, prompt(T, 3), model.PassKV); err != nil {
		return err
	}
	if _, err := dist.Prefill(20, prompt(T, 3), model.PassKV); err != nil {
		return err
	}
	telAfter, err := dist.Telemetry()
	if err != nil {
		return err
	}
	measured := telAfter.Comm.Bytes[comm.KindSendRecv] - telBefore.Comm.Bytes[comm.KindSendRecv]
	// Table 2 (pass-KV): each ring step moves K and V for the block, i.e.
	// 2 * T * (NKV*DH) * e per layer circulated across N-1 steps, plus the
	// engine's 8 B/token position+sequence metadata.
	kvAnalytic := float64(m.Layers*(ranks-1)) * 2 * float64(T) * float64(m.NumKV*m.HeadDim) * m.ElemBytes
	metaAnalytic := float64(m.Layers*(ranks-1)) * float64(T) * 8
	analytic := kvAnalytic + metaAnalytic
	fmt.Printf("\nTable 2 check — cold pass-KV prefill, T=%d, N=%d, L=%d, e=%gB:\n", T, ranks, m.Layers, m.ElemBytes)
	fmt.Printf("  analytic ring KV bytes  L*(N-1)*2*T*NKV*DH*e = %.0f\n", kvAnalytic)
	fmt.Printf("  + per-token metadata    L*(N-1)*T*8          = %.0f\n", metaAnalytic)
	fmt.Printf("  modeled (accounted) sendrecv bytes           = %.0f\n", measured)
	if measured != analytic {
		return fmt.Errorf("modeled sendrecv bytes %.0f != Table 2 analytic %.0f", measured, analytic)
	}
	fmt.Printf("  exact match: the ring moved precisely the paper's byte count\n")

	var wireBytes, wireMsgs int64
	fmt.Println("\nper-link wire traffic (codec frames; heartbeats+control included):")
	for _, l := range telAfter.Links {
		if l.WireBytes == 0 {
			continue
		}
		src := strconv.Itoa(l.Src)
		if l.Src == -1 {
			src = "C" // coordinator control link
		}
		fmt.Printf("  %s->%d: %6d modeled B, %7d wire B in %d frames\n", src, l.Dst, int64(l.Bytes), l.WireBytes, l.WireMsgs)
		wireBytes += l.WireBytes
		wireMsgs += l.WireMsgs
	}
	fmt.Printf("  total: %d wire bytes across %d frames\n", wireBytes, wireMsgs)

	if err := dist.Close(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	for i, wp := range workers {
		if err := wp.cmd.Wait(); err != nil {
			return fmt.Errorf("worker %d exit: %w", i, err)
		}
	}
	fmt.Printf("\nOK: %d logit values compared bit-for-bit across 3 OS processes; workers shut down cleanly\n", checks)
	return nil
}
