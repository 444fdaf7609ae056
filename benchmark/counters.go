package main

import (
	"fmt"
	"net/http"

	"repro/internal/parallel"
	"repro/internal/prefixcache"
	"repro/internal/ring"
	"repro/internal/server"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/transformer"
)

// counters is one reading of every layer counter the engine exposes through
// public accessors. The traced run reads it before and after a round's
// measured phases; a layer's count metric is the difference.
type counters struct {
	Batch    server.BatchStats
	Prefill  server.QueueStats // ClassPrefill: one execution per chunk
	Reuse    server.ReuseStats
	Prefix   prefixcache.Stats
	Assembly ring.BlockCacheStats
	// CommBytes/CommMsgs are the modeled (analytic element-size) traffic.
	CommBytes float64
	CommMsgs  int64
	// WireFrames/WireBytes are what the TCP transport actually moved, data
	// and control links together; zero on the in-process transport.
	WireFrames, WireBytes int64
	Pool                  parallel.Stats
	Matmul                tensor.MatmulStats
	Overlap               ring.OverlapStats
	// Sweeps sums cp_ring_sweeps_total over ops and ranks, read through
	// /metrics so a distributed cluster's workers are drained first.
	Sweeps float64
}

// readCounters snapshots the rig. The /metrics scrape is a trace drain over
// the control plane on a distributed cluster, so it stays outside the span
// the wire counters cover: first when opening a delta, last when closing.
func readCounters(r *rig, closing bool) (*counters, error) {
	c := &counters{}
	sweeps := func() error {
		rep, _, err := r.call(http.MethodGet, "/metrics", nil)
		if err != nil {
			return err
		}
		samples, err := trace.ParseProm(&rep.body)
		if err != nil {
			return fmt.Errorf("/metrics: %w", err)
		}
		c.Sweeps = 0
		for _, s := range samples {
			if s.Name == "cp_ring_sweeps_total" {
				c.Sweeps += s.Value
			}
		}
		return nil
	}
	if !closing {
		if err := sweeps(); err != nil {
			return nil, err
		}
	}
	sched := r.srv.Scheduler()
	var tel transformer.Telemetry
	var telErr error
	sched.WithCluster(func(cl *transformer.Cluster) { tel, telErr = cl.Telemetry() })
	if telErr != nil {
		return nil, fmt.Errorf("cluster telemetry: %w", telErr)
	}
	c.Batch = sched.BatchStats()
	c.Prefill = sched.Stats()[server.ClassPrefill]
	c.Reuse = sched.Reuse()
	c.Prefix, _ = sched.PrefixStats()
	c.Assembly = tel.Assembly
	c.CommBytes, c.CommMsgs = tel.Comm.TotalBytes(), tel.Comm.TotalMessages()
	for _, l := range tel.Links {
		c.WireFrames += l.WireMsgs
		c.WireBytes += l.WireBytes
	}
	c.Pool, c.Matmul, c.Overlap = parallel.Snapshot(), tensor.MatmulSnapshot(), ring.OverlapSnapshot()
	if closing {
		if err := sweeps(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// sub returns the counters' growth since b (levels, like the batch maxima,
// keep c's value).
func (c *counters) sub(b *counters) *counters {
	d := *c
	d.Batch.Iterations -= b.Batch.Iterations
	d.Batch.PrefillChunks -= b.Batch.PrefillChunks
	d.Batch.PrefillTokens -= b.Batch.PrefillTokens
	d.Batch.DecodeTokens -= b.Batch.DecodeTokens
	d.Batch.OccupancySum -= b.Batch.OccupancySum
	d.Prefill.Executed -= b.Prefill.Executed
	d.Prefill.TotalWait -= b.Prefill.TotalWait
	d.Reuse.CachedTokens -= b.Reuse.CachedTokens
	d.Reuse.ComputedTokens -= b.Reuse.ComputedTokens
	d.Reuse.PassKVChunks -= b.Reuse.PassKVChunks
	d.Reuse.PassQChunks -= b.Reuse.PassQChunks
	d.Prefix.EvictedTokens -= b.Prefix.EvictedTokens
	d.Assembly.RebuildRows -= b.Assembly.RebuildRows
	d.Assembly.AppendedRows -= b.Assembly.AppendedRows
	d.CommBytes -= b.CommBytes
	d.CommMsgs -= b.CommMsgs
	d.WireFrames -= b.WireFrames
	d.WireBytes -= b.WireBytes
	d.Pool.Jobs -= b.Pool.Jobs
	d.Pool.SerialJobs -= b.Pool.SerialJobs
	d.Pool.Chunks -= b.Pool.Chunks
	d.Pool.ChunksStolen -= b.Pool.ChunksStolen
	d.Overlap.Steps -= b.Overlap.Steps
	d.Overlap.Hidden -= b.Overlap.Hidden
	d.Sweeps -= b.Sweeps
	return &d
}
