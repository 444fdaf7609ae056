// Command cprank hosts one context-parallel rank as its own OS process: it
// joins the TCP mesh of its peer ranks, accepts the coordinator's control
// connection (cpserve -rank-addrs, or any transformer.ConnectCluster
// client), and executes its shard of every prefill and decode ring pass
// against its local per-layer KV caches. Weights are replicated from the
// same deterministic seed as the coordinator's; the rendezvous handshake
// digests model config, seed, world size, and KV capacity, so a mismatched
// worker is rejected at startup instead of producing skewed logits.
//
// Usage (fixed ports):
//
//	cprank -rank 0 -world 3 -addrs 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002
//	cprank -rank 1 -world 3 -addrs 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002
//	cprank -rank 2 -world 3 -addrs 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002
//	cpserve -rank-addrs 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002
//
// With no -addrs, the worker binds -listen (default 127.0.0.1:0), prints
// "CPRANK_ADDR <host:port>" on stdout, and waits for the full
// comma-separated rank address list on one stdin line — the rendezvous a
// parent process uses to wire up ephemeral ports without races (see
// examples/distributed).
//
// The process exits when the coordinator sends a shutdown command or hangs
// up, or with status 1 on a transport/engine fault.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/comm/transport"
	"repro/internal/parallel"
	"repro/internal/transformer"
)

func main() {
	rank := flag.Int("rank", -1, "this worker's CP rank, in [0, world)")
	world := flag.Int("world", 0, "total CP rank count")
	listen := flag.String("listen", "127.0.0.1:0", "listen address (used when -addrs is empty)")
	addrs := flag.String("addrs", "", "comma-separated addresses of every rank, index = rank id; empty = stdin/stdout rendezvous")
	seed := flag.Int64("seed", 1, "weight seed (must match the coordinator)")
	kvCapacity := flag.Int("kv-capacity", 0, "per-rank KV capacity in tokens, the same for every layer's cache (must match the coordinator; 0 = unlimited)")
	recvTimeout := flag.Duration("recv-timeout", 0, "ring receive deadline (0 = default)")
	rendezvous := flag.Duration("rendezvous-timeout", 15*time.Second, "mesh-formation deadline")
	rejoin := flag.Bool("rejoin", false, "survive cluster rebuilds: when the coordinator hangs up (epoch rebuild after a rank failure), discard state and rejoin the mesh at the next epoch instead of exiting")
	epoch := flag.Uint64("epoch", 1, "cluster epoch to join first; a respawned replacement rank can leave the default and adopt the mesh's current epoch at handshake")
	maxRejoins := flag.Int("max-rejoins", 16, "bound on rejoin cycles (requires -rejoin)")
	traceSpans := flag.Int("trace-spans", 0, "cap on trace spans staged between coordinator drains (0 = default; overflow is dropped and counted)")
	heartbeatEvery := flag.Duration("heartbeat-interval", 0, "heartbeat interval on every mesh link and on the control connection to the coordinator (0 = default 500ms; negative is an error); must match cpserve -heartbeat-interval")
	heartbeatMisses := flag.Int("heartbeat-misses", 0, "silent peer heartbeat windows before a mesh link is declared dead (0 = default 3; 1 is an error; negative disables)")
	chaosSpec := flag.String("chaos", "", `deterministic fault schedule this rank executes, e.g. "slow@0->1#8:2ms*16;corrupt@1->2#32;partition@0|1,2#64;crash@1#96" (see internal/chaos)`)
	flag.Parse()

	if *world <= 0 || *rank < 0 || *rank >= *world {
		fmt.Fprintf(os.Stderr, "cprank: need -rank in [0, world) and -world > 0 (got rank %d, world %d)\n", *rank, *world)
		os.Exit(1)
	}
	if err := transport.CheckHeartbeat(*heartbeatEvery, *heartbeatMisses); err != nil {
		fmt.Fprintf(os.Stderr, "cprank: %v\n", err)
		os.Exit(1)
	}
	cfg := transformer.WorkerConfig{
		Transformer:       transformer.Tiny(*seed),
		Rank:              *rank,
		World:             *world,
		Listen:            *listen,
		KVCapacity:        *kvCapacity,
		RecvTimeout:       *recvTimeout,
		RendezvousTimeout: *rendezvous,
		Epoch:             *epoch,
		Rejoin:            *rejoin,
		MaxRejoins:        *maxRejoins,
		MaxTraceSpans:     *traceSpans,
		HeartbeatEvery:    *heartbeatEvery,
		HeartbeatMisses:   *heartbeatMisses,
	}
	if *chaosSpec != "" {
		sched, err := chaos.Parse(*chaosSpec, *world)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cprank: -chaos: %v\n", err)
			os.Exit(1)
		}
		// One injector for the process lifetime: its logical step clocks
		// persist across -rejoin epochs, so a fault scheduled past a rebuild
		// still fires at its exact step.
		inj := chaos.NewInjector(sched)
		cfg.WrapTransport = inj.Wrap
		log.Printf("cprank: rank %d chaos schedule armed: %s", *rank, sched)
	}
	if *addrs != "" {
		cfg.Addrs = strings.Split(*addrs, ",")
		if len(cfg.Addrs) != *world {
			fmt.Fprintf(os.Stderr, "cprank: %d addresses for world size %d\n", len(cfg.Addrs), *world)
			os.Exit(1)
		}
		cfg.Listen = cfg.Addrs[*rank]
	}
	log.Printf("cprank: rank %d/%d joining mesh (seed %d, kv-capacity %d, %d kernel workers)",
		*rank, *world, *seed, *kvCapacity, parallel.Workers())
	transformer.WorkerMain(cfg)
	log.Printf("cprank: rank %d/%d shut down", *rank, *world)
}
