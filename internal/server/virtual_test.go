package server

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/workload"
)

// virtualTrace generates a seeded trace over the named built-in cohorts, or
// over all of them when none is named.
func virtualTrace(t *testing.T, seed int64, rps float64, sessions int, cohorts ...string) *workload.Trace {
	t.Helper()
	spec := workload.DefaultTraceSpec(seed, 64, rps, 400_000)
	spec.MaxSessions = sessions
	if len(cohorts) > 0 {
		spec.Cohorts = nil
		for _, name := range cohorts {
			c, err := workload.BuiltinCohort(name)
			if err != nil {
				t.Fatal(err)
			}
			spec.Cohorts = append(spec.Cohorts, c)
		}
	}
	tr, err := workload.GenerateTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestVirtualReplayDeterministic is the virtual replay's contract: the same
// trace yields element-for-element identical results, with no wall clock
// and no randomness.
func TestVirtualReplayDeterministic(t *testing.T) {
	tr := virtualTrace(t, 3, 300, 50)
	a, err := ReplayVirtual(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayVirtual(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two virtual replays of the same trace differ")
	}
	if a.Batch.Iterations == 0 || a.DurationMs <= 0 {
		t.Fatalf("degenerate replay: %d iterations, %.3f ms", a.Batch.Iterations, a.DurationMs)
	}
}

// TestVirtualReplayInvariants checks the schedule makes physical sense for
// every request: all complete, one ITL sample per token past the first, an
// e2e of at least the TTFT, and the results build a valid serving report.
func TestVirtualReplayInvariants(t *testing.T) {
	tr := virtualTrace(t, 9, 300, 50)
	res, err := ReplayVirtual(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(tr.Events) {
		t.Fatalf("%d results for %d events", len(res.Results), len(tr.Events))
	}
	for i, r := range res.Results {
		ev := tr.Events[i]
		if r.ID != ev.ID || r.Cohort != ev.Cohort || r.Status != 200 || r.OutputTokens != ev.MaxTokens {
			t.Fatalf("request %d: %+v for event %+v", i, r, ev)
		}
		if r.TTFTMs <= 0 || r.E2EMs < r.TTFTMs || len(r.ITLMs) != ev.MaxTokens-1 {
			t.Fatalf("request %d: ttft %.3f e2e %.3f, %d itl samples for max_tokens %d",
				i, r.TTFTMs, r.E2EMs, len(r.ITLMs), ev.MaxTokens)
		}
	}
	rep := workload.BuildServingReport(tr, res.Results, res.DurationMs, 1)
	if err := workload.ValidateServingReport(rep); err != nil {
		t.Fatalf("virtual replay report invalid: %v", err)
	}
	if rep.Totals.Completed != len(tr.Events) {
		t.Fatalf("completed %d want %d", rep.Totals.Completed, len(tr.Events))
	}
}

// TestVirtualReplayOnePrefillPerIteration pins the policy the replay runs:
// four sessions arrive together with prompts that would all fit one token
// budget, yet each iteration prefills only the queue head, so the first
// tokens land on four successive iterations, each behind the fused decode of
// the sessions already streaming.
func TestVirtualReplayOnePrefillPerIteration(t *testing.T) {
	const n = 8 // prompt tokens per session; four prompts fill the default budget
	tr := &workload.Trace{Spec: workload.DefaultTraceSpec(1, 64, 100, 400_000)}
	for i := range 4 {
		tr.Events = append(tr.Events, workload.TraceEvent{
			ID: i, Session: i, Cohort: "chat", Prompt: seq(1+n*i, n), MaxTokens: 8,
		})
	}
	res, err := ReplayVirtual(tr)
	if err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	for k, r := range res.Results {
		if k > 0 {
			at += virtualCommandCost + time.Duration(k)*virtualRowCost // decode of sessions 0..k-1
		}
		at += virtualCommandCost + n*virtualTokenCost // session k's prompt, one chunk
		if r.TTFTMs != msOf(at) {
			t.Fatalf("session %d's first token at %.3f ms, want %.3f ms (iteration %d)", k, r.TTFTMs, msOf(at), k+1)
		}
	}
}

// TestVirtualReplayReusesSharedPrefix: rag sessions share a corpus head, so
// the first one released donates it to the prefix tree and later sessions
// adopt it, in virtual time as on the engine.
func TestVirtualReplayReusesSharedPrefix(t *testing.T) {
	res, err := ReplayVirtual(virtualTrace(t, 7, 20, 6, "rag"))
	if err != nil {
		t.Fatal(err)
	}
	if reuse := res.Reuse; reuse.Hits == 0 || reuse.CachedTokens == 0 {
		t.Fatalf("reuse = %+v, want prefix-tree hits", reuse)
	}
}
