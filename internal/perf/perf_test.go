package perf

import (
	"math"
	"testing"

	"repro/internal/model"
)

// within asserts |got-want|/want <= tol.
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero reference", name)
	}
	if rel := math.Abs(got-want) / math.Abs(want); rel > tol {
		t.Errorf("%s = %.4g, want %.4g (rel err %.1f%% > %.0f%%)", name, got, want, rel*100, tol*100)
	}
}

func TestValidate(t *testing.T) {
	if err := gtt(2, 1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := gtt(2, 2)
	if err := bad.Validate(); err == nil {
		t.Fatal("CP>1 with TPNodes>1 accepted")
	}
	if err := gtt(0, 1).Validate(); err == nil {
		t.Fatal("zero CP nodes accepted")
	}
}

func TestNames(t *testing.T) {
	cases := map[string]System{
		"TP8":     gtt(1, 1),
		"CP2+TP8": gtt(2, 1),
		"CP8+TP8": gtt(8, 1),
		"TP16":    gtt(1, 2),
		"TP32":    gtt(1, 4),
	}
	for want, s := range cases {
		if got := s.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestWeightBytesPlausible(t *testing.T) {
	// FP8 FFN + BF16 attention/embeddings of Llama3 405B is ~480 GB.
	wb := WeightBytes(model.Llama3405B())
	if wb < 430e9 || wb > 530e9 {
		t.Fatalf("WeightBytes = %.3g, want ~480e9", wb)
	}
}

func TestCausalPairs(t *testing.T) {
	if got := CausalPairs(4, 0); got != 10 { // 1+2+3+4
		t.Fatalf("CausalPairs(4,0) = %v, want 10", got)
	}
	if got := CausalPairs(2, 3); got != 9 { // (3+1)+(3+2)
		t.Fatalf("CausalPairs(2,3) = %v, want 9", got)
	}
}

// Paper anchors, §4.2 and Table 7: TTFT at 128K context.
func TestPrefillAnchors128K(t *testing.T) {
	const T = 128000
	within(t, "CP1 TTFT 128K", gtt(1, 1).Prefill(T, 0, PassKV).Total, 42.010, 0.15)
	within(t, "CP2 TTFT 128K", gtt(2, 1).Prefill(T, 0, PassKV).Total, 21.042, 0.15)
	within(t, "CP4 TTFT 128K", gtt(4, 1).Prefill(T, 0, PassKV).Total, 10.950, 0.15)
	within(t, "CP8 TTFT 128K", gtt(8, 1).Prefill(T, 0, PassKV).Total, 5.85, 0.15)
	within(t, "TP16 TTFT 128K", gtt(1, 2).Prefill(T, 0, PassKV).Total, 29.917, 0.15)
	within(t, "TP32 TTFT 128K", gtt(1, 4).Prefill(T, 0, PassKV).Total, 19.841, 0.15)
}

// Table 6 anchors: TTFT at smaller contexts on one node.
func TestPrefillAnchorsSmallContexts(t *testing.T) {
	within(t, "TP8 TTFT 8K", gtt(1, 1).Prefill(8000, 0, PassKV).Total, 1.740, 0.25)
	within(t, "TP8 TTFT 32K", gtt(1, 1).Prefill(32000, 0, PassKV).Total, 7.658, 0.15)
	within(t, "CP2 TTFT 32K", gtt(2, 1).Prefill(32000, 0, PassKV).Total, 4.015, 0.20)
}

// §4.2.3 anchors: 1M-token prefill on 16 nodes in 77 s, 128K in 3.8 s.
func TestMillionTokenAnchors(t *testing.T) {
	within(t, "CP16 TTFT 1M", gtt(16, 1).Prefill(1_000_000, 0, PassKV).Total, 77, 0.12)
	within(t, "CP16 TTFT 128K", gtt(16, 1).Prefill(128_000, 0, PassKV).Total, 3.8, 0.25)
	// TTFT more than doubles when context doubles beyond 512K (attention
	// quadratic takes over).
	cp16 := gtt(16, 1)
	r := cp16.Prefill(1_000_000, 0, PassKV).Total / cp16.Prefill(512_000, 0, PassKV).Total
	if r < 2 {
		t.Errorf("1M/512K TTFT ratio = %.2f, want > 2 (quadratic attention regime)", r)
	}
}

// Appendix A: 502 TF/s/GPU achieved, ~63%% utilization, ~93%% parallel
// efficiency for 1M over 128 GPUs.
func TestMFUAnchor(t *testing.T) {
	perGPU, util := gtt(16, 1).MFU(1_000_000, PassKV)
	within(t, "achieved TF/s per GPU at 1M", perGPU, 502e12, 0.12)
	within(t, "FLOPS utilization", util, 0.63, 0.12)
	within(t, "parallel efficiency", gtt(16, 1).ParallelEfficiency(1_000_000, PassKV), 0.93, 0.12)
}

// Figure 7: CP scales near-linearly while multi-node TP saturates; by 8
// nodes CP is roughly 2x faster than TP64 would be — we check the ordering
// and the paper's explicit endpoints.
func TestScalingRatioOrdering(t *testing.T) {
	const T = 128000
	cpPrev := 0.0
	for _, n := range []int{2, 4, 8} {
		cp := gtt(n, 1).ScalingRatio(T, PassKV)
		if cp <= cpPrev {
			t.Fatalf("CP scaling ratio not increasing: CP%d=%.2f after %.2f", n, cp, cpPrev)
		}
		if cp < 0.8*float64(n) {
			t.Errorf("CP%d scaling ratio %.2f below 80%% of linear", n, cp)
		}
		cpPrev = cp
	}
	tp16 := gtt(1, 2).ScalingRatio(T, PassKV)
	tp32 := gtt(1, 4).ScalingRatio(T, PassKV)
	cp2 := gtt(2, 1).ScalingRatio(T, PassKV)
	cp4 := gtt(4, 1).ScalingRatio(T, PassKV)
	if tp16 >= cp2 || tp32 >= cp4 {
		t.Errorf("TP should scale worse than CP: TP16=%.2f CP2=%.2f TP32=%.2f CP4=%.2f",
			tp16, cp2, tp32, cp4)
	}
	// Paper: the latency gap grows to ~100% at 8 nodes (CP8 ~2x faster than TP64).
	tp64 := System{Model: model.Llama3405B(), Plat: GTT(), CPNodes: 1, TPNodes: 8}
	gap := tp64.Prefill(T, 0, PassKV).Total / gtt(8, 1).Prefill(T, 0, PassKV).Total
	if gap < 1.5 {
		t.Errorf("TP64/CP8 latency gap = %.2f, want >= 1.5 (paper reports ~2x)", gap)
	}
}

// GTI (TCP) still overlaps pass-KV at large contexts: CP4 at 128K must be
// within 25%% of the GTT latency (paper: same scalability up to 4 nodes).
func TestGTIPrefillOverlap(t *testing.T) {
	const T = 128000
	gttLat := gtt(4, 1).Prefill(T, 0, PassKV).Total
	gtiLat := gti(4).Prefill(T, 0, PassKV).Total
	if gtiLat > 1.25*gttLat {
		t.Errorf("GTI CP4 at 128K = %.2fs vs GTT %.2fs: pass-KV not overlapping on TCP", gtiLat, gttLat)
	}
	// At small contexts the slow fabric must expose communication: the
	// GTI/GTT latency gap should widen (relatively) as T shrinks.
	gapSmall := gti(4).Prefill(4000, 0, PassKV).Total / gtt(4, 1).Prefill(4000, 0, PassKV).Total
	gapLarge := gtiLat / gttLat
	if gapSmall < gapLarge {
		t.Errorf("expected wider GTI gap at small T: small=%.3f large=%.3f", gapSmall, gapLarge)
	}
}

// Table 5 anchors: per-iteration microsecond breakdown at CP4, P+T=128000.
func TestTable5Breakdown(t *testing.T) {
	s := gtt(4, 1)
	// 2.5% miss rate: T=3200, P=124800.
	kv := s.Prefill(3200, 124800, PassKV)
	within(t, "pass-KV SendRecv @2.5%", kv.SendRecvIter, 627e-6, 0.20)
	within(t, "ATTN iter @2.5%", kv.AttnIter, 414e-6, 0.20)
	q := s.Prefill(3200, 124800, PassQ)
	within(t, "pass-Q SendRecv @2.5%", q.SendRecvIter, 166e-6, 0.20)
	within(t, "pass-Q All2All @2.5%", q.All2All/float64(s.Model.Layers), 424e-6, 0.20)
	// 10% miss rate: T=12800, P=115200.
	kv10 := s.Prefill(12800, 115200, PassKV)
	within(t, "pass-KV SendRecv @10%", kv10.SendRecvIter, 631e-6, 0.20)
	within(t, "ATTN iter @10%", kv10.AttnIter, 1608e-6, 0.20)
	q10 := s.Prefill(12800, 115200, PassQ)
	within(t, "pass-Q SendRecv @10%", q10.SendRecvIter, 544e-6, 0.30)
	within(t, "pass-Q All2All @10%", q10.All2All/float64(s.Model.Layers), 1023e-6, 0.45)
}

// Figure 9 / Table 4: the pass-KV vs pass-Q crossover sits at a low cache
// miss rate (paper: ~5% for CP4 at 128K total context).
func TestCrossoverLocation(t *testing.T) {
	s := gtt(4, 1)
	const total = 128000
	// pass-Q must win at 1% miss rate, pass-KV at 10% and 100%.
	check := func(miss float64, want Variant) {
		t.Helper()
		T := int(miss * total)
		P := total - T
		v, kv, q := s.PrefillBest(T, P)
		if v != want {
			t.Errorf("at miss %.1f%%: chose %v (kv=%.0fms q=%.0fms), want %v",
				miss*100, v, kv.Total*1000, q.Total*1000, want)
		}
	}
	check(0.01, PassQ)
	check(0.10, PassKV)
	check(1.00, PassKV)
	// Crossover between 1% and 10%.
	lo, hi := 0.01, 0.10
	for i := 0; i < 30; i++ {
		mid := (lo + hi) / 2
		T := int(mid * total)
		v, _, _ := s.PrefillBest(T, total-T)
		if v == PassQ {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0.015 || lo > 0.08 {
		t.Errorf("crossover at %.2f%% miss rate, want within [1.5%%, 8%%] (paper ~5%%)", lo*100)
	}
}

// Table 4 shape: TTFT is monotone in the miss rate for both variants and
// roughly linear (the paper: "TTFT latency is linearly proportional to the
// persistent KV cache miss rate").
func TestTTFTMonotoneInMissRate(t *testing.T) {
	s := gtt(4, 1)
	const total = 128000
	for _, v := range []Variant{PassKV, PassQ} {
		prev := 0.0
		for _, missPct := range []int{1, 5, 10, 20, 40, 60, 80, 100} {
			T := total * missPct / 100
			tot := s.Prefill(T, total-T, v).Total
			if tot <= prev {
				t.Fatalf("%v TTFT not increasing at %d%%: %v after %v", v, missPct, tot, prev)
			}
			prev = tot
		}
		// Linearity: TTFT(100%) should be within 2.5x of 2*TTFT(50%).
		full := s.Prefill(total, 0, v).Total
		half := s.Prefill(total/2, total/2, v).Total
		if r := full / half; r < 1.4 || r > 2.5 {
			t.Errorf("%v full/half TTFT ratio = %.2f, want roughly linear (1.4-2.5)", v, r)
		}
	}
}

// Table 6/7 decode anchors.
func TestDecodeAnchors(t *testing.T) {
	within(t, "TP8 TTIT 8K", gtt(1, 1).Decode(8000, 1).Total, 44.51e-3, 0.15)
	within(t, "TP8 TTIT 128K", gtt(1, 1).Decode(128000, 1).Total, 46.26e-3, 0.15)
	within(t, "CP2 TTIT 128K", gtt(2, 1).Decode(128000, 1).Total, 60.23e-3, 0.15)
	within(t, "CP4 TTIT 128K", gtt(4, 1).Decode(128000, 1).Total, 71.31e-3, 0.15)
	within(t, "TP16 TTIT 128K", gtt(1, 2).Decode(128000, 1).Total, 39.52e-3, 0.15)
	within(t, "TP32 TTIT 128K", gtt(1, 4).Decode(128000, 1).Total, 47.3e-3, 0.15)
}

// Table 8 anchors: decode attention microsecond breakdown at 128K, B=1.
func TestTable8Breakdown(t *testing.T) {
	cp1 := gtt(1, 1).Decode(128000, 1)
	within(t, "CP1 attn op", cp1.AttnOp, 38.9e-6, 0.25)
	cp2 := gtt(2, 1).Decode(128000, 1)
	within(t, "CP2 attn op", cp2.AttnOp, 22.0e-6, 0.25)
	within(t, "CP2 attn loop", cp2.AttnLoopIter, 43.2e-6, 0.25)
	within(t, "CP2 sendrecv", cp2.SendRecvIter, 32.3e-6, 0.25)
	within(t, "CP2 all2all", cp2.All2AllIter, 81.1e-6, 0.25)
	within(t, "CP2 whole pass-Q", cp2.WholeAttnIter, 157.7e-6, 0.25)
	cp4 := gtt(4, 1).Decode(128000, 1)
	within(t, "CP4 attn op", cp4.AttnOp, 14.7e-6, 0.30)
	within(t, "CP4 sendrecv", cp4.SendRecvIter, 105.7e-6, 0.25)
	within(t, "CP4 whole pass-Q", cp4.WholeAttnIter, 238.6e-6, 0.25)
}

// §4.3: TTIT barely grows with context (both TP8 and CP2), and decode does
// NOT scale with more hosts — CP4 must be slower than CP1 per token.
func TestDecodeShape(t *testing.T) {
	tp8Small := gtt(1, 1).Decode(8000, 1).Total
	tp8Large := gtt(1, 1).Decode(128000, 1).Total
	if tp8Large > 1.25*tp8Small {
		t.Errorf("TP8 TTIT grew too much with context: %.1fms -> %.1fms", tp8Small*1000, tp8Large*1000)
	}
	cp1 := gtt(1, 1).Decode(128000, 1).Total
	cp4 := gtt(4, 1).Decode(128000, 1).Total
	if cp4 <= cp1 {
		t.Errorf("CP4 decode %.1fms should be slower than CP1 %.1fms (paper §4.3)", cp4*1000, cp1*1000)
	}
	// Individual attention ops DO get faster with more ranks.
	if gtt(4, 1).Decode(128000, 1).AttnOp >= gtt(2, 1).Decode(128000, 1).AttnOp {
		t.Error("individual decode attention op should shrink with more CP ranks")
	}
}

// KV capacity grows with CP ranks (§4.2.3's capacity argument).
func TestKVCapacityScalesWithCP(t *testing.T) {
	c1 := gtt(1, 1).KVCapacityTokens()
	c8 := gtt(8, 1).KVCapacityTokens()
	if c1 <= 0 {
		t.Fatalf("single node capacity = %v, want positive", c1)
	}
	if r := c8 / c1; math.Abs(r-8) > 1e-9 {
		t.Errorf("capacity ratio CP8/CP1 = %v, want 8", r)
	}
	// One node cannot hold 1M tokens of Llama3-405B KV, 16 nodes can.
	if c1 >= 1e6 {
		t.Errorf("one node holds %v tokens, expected < 1M", c1)
	}
	if gtt(16, 1).KVCapacityTokens() < 1e6 {
		t.Error("16 nodes should hold at least 1M tokens of KV")
	}
}

// The GB200-like platform restores multi-node TP viability (§4.2.2 remark).
func TestGB200TPRecovers(t *testing.T) {
	const T = 128000
	m := model.Llama3405B()
	gttTP16 := System{Model: m, Plat: GTT(), CPNodes: 1, TPNodes: 2}
	gbTP16 := System{Model: m, Plat: GB200Like(), CPNodes: 1, TPNodes: 2}
	rGTT := gttTP16.ScalingRatio(T, PassKV)
	rGB := gbTP16.ScalingRatio(T, PassKV)
	if rGB <= rGTT {
		t.Errorf("GB200-like TP16 ratio %.2f should beat GTT TP16 ratio %.2f", rGB, rGTT)
	}
}

func TestPrefillBreakdownConsistency(t *testing.T) {
	for _, s := range []System{gtt(1, 1), gtt(4, 1), gtt(1, 2)} {
		for _, v := range []Variant{PassKV, PassQ} {
			b := s.Prefill(64000, 64000, v)
			sum := b.GEMM + b.Attn + b.AllReduce + b.RingExposed + b.All2All + b.Base
			if math.Abs(sum-b.Total) > 1e-9 {
				t.Errorf("%s %v: components sum %v != total %v", s.Name(), v, sum, b.Total)
			}
			if b.GEMM <= 0 || b.Attn <= 0 || b.Base <= 0 {
				t.Errorf("%s %v: non-positive component %+v", s.Name(), v, b)
			}
		}
	}
}

func TestDecodeBreakdownConsistency(t *testing.T) {
	for _, s := range []System{gtt(1, 1), gtt(2, 1), gtt(1, 4)} {
		b := s.Decode(32000, 4)
		sum := b.WeightRead + b.ARLatency + b.AttnLoop + b.SendRecv + b.All2All + b.Base
		if math.Abs(sum-b.Total) > 1e-9 {
			t.Errorf("%s: components sum %v != total %v", s.Name(), sum, b.Total)
		}
	}
}

func TestVariantString(t *testing.T) {
	if PassKV.String() != "pass-KV" || PassQ.String() != "pass-Q" {
		t.Fatal("variant names changed")
	}
	if Variant(9).String() == "" {
		t.Fatal("unknown variant should still render")
	}
}

// TestChooseVariantCrossoverPinned pins the auto-variant rule to Equation 1:
// pass-KV exactly when model.MissRate(T, P) is at or above 2·NKV/NH, pass-Q
// strictly below, over a grid of partial-prefill workloads and at the exact
// crossover point.
func TestChooseVariantCrossoverPinned(t *testing.T) {
	c := model.Llama3405B()
	threshold := 2 * c.KVRatio() // 2*8/128 = 0.125
	if threshold != 0.125 {
		t.Fatalf("Llama3 405B Eq. 1 threshold = %v, want 0.125", threshold)
	}
	for _, T := range []int{1, 100, 1280, 16000, 128000} {
		for _, P := range []int{0, 100, 1280, 126720, 1000000} {
			got := ChooseVariant(c, T, P)
			want := PassQ
			if model.MissRate(T, P) >= threshold {
				want = PassKV
			}
			if got != want {
				t.Fatalf("ChooseVariant(T=%d, P=%d) = %v, want %v at miss rate %v",
					T, P, got, want, model.MissRate(T, P))
			}
		}
	}
	// Exact crossover: miss rate 1/8 == threshold selects pass-KV; one more
	// cached token drops below it and flips to pass-Q.
	if got := ChooseVariant(c, 1, 7); got != PassKV {
		t.Fatalf("at-threshold miss rate chose %v, want pass-KV", got)
	}
	if got := ChooseVariant(c, 1, 8); got != PassQ {
		t.Fatalf("below-threshold miss rate chose %v, want pass-Q", got)
	}
	// System.Prefill resolves Auto to the same rule before modeling.
	sys := System{Model: c, Plat: GTT(), CPNodes: 4, TPNodes: 1}
	for _, pt := range []struct{ T, P int }{{1280, 126720}, {128000, 0}, {16000, 112000}} {
		b := sys.Prefill(pt.T, pt.P, Auto)
		if b.Variant != ChooseVariant(c, pt.T, pt.P) {
			t.Fatalf("Auto resolved to %v at T=%d P=%d, want %v", b.Variant, pt.T, pt.P, ChooseVariant(c, pt.T, pt.P))
		}
	}
	if Auto.String() != "auto" {
		t.Fatalf("Auto.String() = %q", Auto.String())
	}
}
