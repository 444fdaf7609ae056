package transformer

import (
	"sync"

	"repro/internal/chaos"
	"repro/internal/comm/wire"
	"repro/internal/parallel"
	"repro/internal/ring"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// ProcessCounters is the process-global counters of the wire, chaos and
// kernel packages. Read from a recorder (RecordedCounters), it sums every
// process that reported into it: after a Telemetry, the cluster's workers
// and its coordinator. Its settings — Pool.Workers, Overlap.Enabled — are
// properties of one process and read zero there.
type ProcessCounters struct {
	IntegrityChecked  int64
	IntegrityRejected int64
	Chaos             []int64 // injected faults, indexed like chaos.Kinds
	Pool              parallel.Stats
	Matmul            tensor.MatmulStats
	Overlap           ring.OverlapStats
}

// processCounter is one series of a ProcessCounters field: its family, its
// labels, and the field.
type processCounter struct {
	name   string
	labels []trace.Label
	at     func(*ProcessCounters) *int64
}

// processCounters lists every counter of a ProcessCounters. A kernel family
// is labelled field, with the /v1/stats JSON field name as its value.
var processCounters = func() []processCounter {
	field := func(name, f string, at func(*ProcessCounters) *int64) processCounter {
		return processCounter{name, []trace.Label{trace.L("field", f)}, at}
	}
	cs := []processCounter{
		{"cp_integrity_checked_total", nil, func(p *ProcessCounters) *int64 { return &p.IntegrityChecked }},
		{"cp_integrity_rejected_total", nil, func(p *ProcessCounters) *int64 { return &p.IntegrityRejected }},
		field("cp_kernel_pool_total", "jobs", func(p *ProcessCounters) *int64 { return &p.Pool.Jobs }),
		field("cp_kernel_pool_total", "serial_jobs", func(p *ProcessCounters) *int64 { return &p.Pool.SerialJobs }),
		field("cp_kernel_pool_total", "chunks", func(p *ProcessCounters) *int64 { return &p.Pool.Chunks }),
		field("cp_kernel_pool_total", "chunks_stolen", func(p *ProcessCounters) *int64 { return &p.Pool.ChunksStolen }),
		field("cp_kernel_pool_total", "helped_chunks", func(p *ProcessCounters) *int64 { return &p.Pool.HelpedChunks }),
		field("cp_kernel_matmul_total", "jobs", func(p *ProcessCounters) *int64 { return &p.Matmul.Jobs }),
		field("cp_kernel_matmul_total", "serial_jobs", func(p *ProcessCounters) *int64 { return &p.Matmul.SerialJobs }),
		field("cp_kernel_matmul_total", "cells", func(p *ProcessCounters) *int64 { return &p.Matmul.Cells }),
		field("cp_kernel_ring_overlap_total", "steps", func(p *ProcessCounters) *int64 { return &p.Overlap.Steps }),
		field("cp_kernel_ring_overlap_total", "hidden_steps", func(p *ProcessCounters) *int64 { return &p.Overlap.Hidden }),
		field("cp_kernel_ring_overlap_total", "sync_steps", func(p *ProcessCounters) *int64 { return &p.Overlap.SyncSteps }),
	}
	for i, k := range chaos.Kinds {
		cs = append(cs, processCounter{"cp_chaos_faults_total", []trace.Label{trace.L("kind", string(k))},
			func(p *ProcessCounters) *int64 { return &p.Chaos[i] }})
	}
	return cs
}()

// RecordedCounters reads the process counters rec holds.
func RecordedCounters(rec *trace.Recorder) ProcessCounters {
	p := ProcessCounters{Chaos: make([]int64, len(chaos.Kinds))}
	for _, c := range processCounters {
		*c.at(&p) = int64(rec.CounterSeries(c.name, c.labels...).Snap().Value)
	}
	if p.Overlap.Steps > 0 {
		p.Overlap.Occupancy = float64(p.Overlap.Hidden) / float64(p.Overlap.Steps)
	}
	return p
}

// follower moves this process's counters into recorders: each follow adds
// the growth of the process totals since the previous follow, whichever
// recorder that went to. So each increment is counted once, in the first
// recorder that asks after it happened, and the recorders of one process sum
// to its totals. A loopback cluster, whose workers share the coordinator's
// process, counts it once; a respawned worker process reports its own
// totals from zero.
type follower struct {
	mu   sync.Mutex
	last ProcessCounters
}

// processFollower is this process's follower. A worker's engine follows
// into its staging recorder just before the trace drain, and
// Cluster.Telemetry into the cluster's recorder.
var processFollower = follower{last: ProcessCounters{Chaos: make([]int64, len(chaos.Kinds))}}

// follow adds the process totals' growth since the previous follow to rec.
// A nil rec asks for nothing and leaves the growth to the next recorder.
func (f *follower) follow(rec *trace.Recorder) {
	if rec == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	now := ProcessCounters{Chaos: chaos.Totals(), Pool: parallel.Snapshot(), Matmul: tensor.MatmulSnapshot(), Overlap: ring.OverlapSnapshot()}
	now.IntegrityChecked, now.IntegrityRejected = wire.IntegrityStats()
	for _, c := range processCounters {
		if d := *c.at(&now) - *c.at(&f.last); d > 0 {
			rec.CounterSeries(c.name, c.labels...).Inc(float64(d))
		}
	}
	f.last = now
}
