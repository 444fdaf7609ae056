package sharding

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
	"repro/internal/testsupport"
)

func TestPaddedLenAndChunkLen(t *testing.T) {
	cases := []struct{ T, n, wantPad, wantChunk int }{
		{8, 2, 8, 2},   // 8 tokens, 4 chunks of 2
		{7, 2, 8, 2},   // pads to 8
		{1, 4, 8, 1},   // tiny sequence pads to 2N
		{0, 4, 0, 0},   // empty stays empty
		{16, 4, 16, 2}, // exact fit
		{17, 4, 24, 3},
	}
	for _, c := range cases {
		if got := PaddedLen(c.T, c.n); got != c.wantPad {
			t.Errorf("PaddedLen(%d,%d) = %d, want %d", c.T, c.n, got, c.wantPad)
		}
		if got := ChunkLen(c.T, c.n); got != c.wantChunk {
			t.Errorf("ChunkLen(%d,%d) = %d, want %d", c.T, c.n, got, c.wantChunk)
		}
	}
}

func TestRankChunksMirrors(t *testing.T) {
	n := 4
	seen := map[int]bool{}
	for r := 0; r < n; r++ {
		a, b := RankChunks(r, n)
		if a+b != ChunkCount(n)-1 {
			t.Errorf("rank %d chunks (%d,%d) are not mirrored", r, a, b)
		}
		seen[a], seen[b] = true, true
	}
	if len(seen) != ChunkCount(n) {
		t.Errorf("chunks are not a disjoint cover: %v", seen)
	}
}

// Figure 1 example: 2 CP ranks, a sequence split into 4 chunks; rank 0 takes
// chunks (0, 3), rank 1 takes chunks (1, 2).
func TestLoadBalancedPositionsFigure1(t *testing.T) {
	T, n := 8, 2
	want := map[int][]int{
		0: {0, 1, 6, 7},
		1: {2, 3, 4, 5},
	}
	for r, w := range want {
		got := LoadBalancedPositions(T, n, r)
		if len(got) != len(w) {
			t.Fatalf("rank %d: got %v, want %v", r, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("rank %d: got %v, want %v", r, got, w)
			}
		}
	}
}

func TestLoadBalancedPositionsPadding(t *testing.T) {
	// T=5, N=2 -> padded to 8, chunk len 2. Positions 5,6,7 are padding.
	got := LoadBalancedPositions(5, 2, 0) // chunks 0 and 3 -> 0,1,6,7
	want := []int{0, 1, Pad, Pad}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank0 = %v, want %v", got, want)
		}
	}
	got1 := LoadBalancedPositions(5, 2, 1) // chunks 1 and 2 -> 2,3,4,5(pad)
	want1 := []int{2, 3, 4, Pad}
	for i := range want1 {
		if got1[i] != want1[i] {
			t.Fatalf("rank1 = %v, want %v", got1, want1)
		}
	}
}

func TestPositionsAreDisjointCover(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		for _, T := range []int{1, 5, 16, 33} {
			seen := map[int]int{}
			for r := 0; r < n; r++ {
				for _, p := range LoadBalancedPositions(T, n, r) {
					if p == Pad {
						continue
					}
					seen[p]++
				}
			}
			if len(seen) != T {
				t.Fatalf("N=%d T=%d: covered %d positions, want %d", n, T, len(seen), T)
			}
			for p, c := range seen {
				if c != 1 {
					t.Fatalf("N=%d T=%d: position %d covered %d times", n, T, p, c)
				}
			}
		}
	}
}

func TestEqualLocalLengthAcrossRanks(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		for _, T := range []int{1, 7, 20} {
			l := len(LoadBalancedPositions(T, n, 0))
			for r := 1; r < n; r++ {
				if got := len(LoadBalancedPositions(T, n, r)); got != l {
					t.Fatalf("N=%d T=%d: rank %d has %d slots, rank 0 has %d", n, T, r, got, l)
				}
			}
		}
	}
}

// The core load-balance claim: with 2N mirrored chunks, causal compute per
// rank is exactly equal when T divides evenly, and always strictly more
// balanced than the contiguous baseline for N >= 2 on long sequences.
func TestCausalBalanceBeatsContiguous(t *testing.T) {
	T, n := 1024, 4
	var lbMin, lbMax, ctMin, ctMax int64
	lbMin, ctMin = 1<<62, 1<<62
	for r := 0; r < n; r++ {
		lb := CausalPairs(LoadBalancedPositions(T, n, r))
		ct := CausalPairs(ContiguousPositions(T, n, r))
		if lb < lbMin {
			lbMin = lb
		}
		if lb > lbMax {
			lbMax = lb
		}
		if ct < ctMin {
			ctMin = ct
		}
		if ct > ctMax {
			ctMax = ct
		}
	}
	if lbMin != lbMax {
		t.Fatalf("load-balanced sharding not perfectly balanced on divisible input: min=%d max=%d", lbMin, lbMax)
	}
	if float64(ctMax)/float64(ctMin) < 3 {
		t.Fatalf("contiguous baseline unexpectedly balanced: min=%d max=%d", ctMin, ctMax)
	}
}

func TestStripedPositionsCoverAndBalance(t *testing.T) {
	T, n := 64, 4
	seen := map[int]bool{}
	var pairs []int64
	for r := 0; r < n; r++ {
		pos := StripedPositions(T, n, r)
		for _, p := range pos {
			if p != Pad {
				seen[p] = true
			}
		}
		pairs = append(pairs, CausalPairs(pos))
	}
	if len(seen) != T {
		t.Fatalf("striped cover has %d positions, want %d", len(seen), T)
	}
	// Striping is balanced to within one diagonal's worth of pairs.
	min, max := pairs[0], pairs[0]
	for _, p := range pairs {
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	if float64(max-min) > float64(T) {
		t.Fatalf("striped imbalance %d pairs exceeds T", max-min)
	}
}

func TestStripedPadding(t *testing.T) {
	got := StripedPositions(5, 2, 1) // 1, 3, 5(pad)
	want := []int{1, 3, Pad}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("striped = %v, want %v", got, want)
		}
	}
	if StripedPositions(0, 2, 0) != nil {
		t.Fatal("empty sequence should yield nil")
	}
}

// The locality argument for the paper's mirrored-chunk scheme: it keeps 2
// contiguous runs per rank while striping fragments into ~T/n runs.
func TestRunsLocalityComparison(t *testing.T) {
	T, n := 64, 4
	for r := 0; r < n; r++ {
		lb := Runs(LoadBalancedPositions(T, n, r))
		st := Runs(StripedPositions(T, n, r))
		if lb > 2 {
			t.Fatalf("load-balanced rank %d has %d runs, want <= 2", r, lb)
		}
		if st != T/n {
			t.Fatalf("striped rank %d has %d runs, want %d", r, st, T/n)
		}
	}
	if Runs([]int{0, 1, Pad, 5, 6, 7}) != 2 {
		t.Fatal("Runs miscounts around padding")
	}
}

func TestContiguousPositionsCover(t *testing.T) {
	T, n := 10, 3
	seen := map[int]bool{}
	for r := 0; r < n; r++ {
		for _, p := range ContiguousPositions(T, n, r) {
			if p != Pad {
				seen[p] = true
			}
		}
	}
	if len(seen) != T {
		t.Fatalf("contiguous cover has %d positions, want %d", len(seen), T)
	}
}

func TestBatchShardRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seqLens := []int{5, 8, 1}
	b, err := NewBatchShard(seqLens, 2)
	if err != nil {
		t.Fatal(err)
	}
	full := tensor.RandN(rng, b.TotalTokens(), 2, 3)
	locals := make([]*tensor.Tensor, b.N)
	for r := 0; r < b.N; r++ {
		locals[r] = b.Shard(full, r)
	}
	back := b.Unshard(locals)
	if d := tensor.MaxAbsDiff(full, back); d != 0 {
		t.Fatalf("Shard/Unshard round trip diff %v", d)
	}
}

func TestBatchShardLocalLenEqualAcrossRanks(t *testing.T) {
	b, err := NewBatchShard([]int{3, 10, 6}, 4)
	if err != nil {
		t.Fatal(err)
	}
	l := b.LocalLen(0)
	for r := 1; r < 4; r++ {
		if b.LocalLen(r) != l {
			t.Fatalf("rank %d local len %d != rank 0 len %d", r, b.LocalLen(r), l)
		}
	}
}

func TestBatchShardErrors(t *testing.T) {
	if _, err := NewBatchShard(nil, 2); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := NewBatchShard([]int{3}, 0); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := NewBatchShard([]int{-1}, 2); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestBatchShardSeqOffsets(t *testing.T) {
	b, err := NewBatchShard([]int{4, 2, 7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.SeqOffset(0) != 0 || b.SeqOffset(1) != 4 || b.SeqOffset(2) != 6 {
		t.Fatalf("offsets = %d,%d,%d", b.SeqOffset(0), b.SeqOffset(1), b.SeqOffset(2))
	}
	if b.TotalTokens() != 13 {
		t.Fatalf("TotalTokens = %d, want 13", b.TotalTokens())
	}
}

// Locate is the inverse of the plan's slot layout: every non-padding slot of
// every rank is found at exactly its (sequence, position), for batches whose
// lengths do and do not fill the 2N chunks.
func TestBatchShardLocateInvertsLayout(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		b, err := NewBatchShard([]int{1, 7, 16, 5, 2}, n)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for r := 0; r < n; r++ {
			for slot, p := range b.LocalPositions(r) {
				if p == Pad {
					continue
				}
				found++
				if gr, gs := b.Locate(b.LocalSeqs(r)[slot], p); gr != r || gs != slot {
					t.Fatalf("N=%d: Locate(%d, %d) = rank %d slot %d, the plan has rank %d slot %d",
						n, b.LocalSeqs(r)[slot], p, gr, gs, r, slot)
				}
			}
		}
		if found != b.TotalTokens() {
			t.Fatalf("N=%d: %d non-padding slots for %d tokens", n, found, b.TotalTokens())
		}
	}
}

func TestDecodeOwnerRoundRobinOffset(t *testing.T) {
	n := 4
	// At step 0, sequence i belongs to rank i%n; each step shifts by one.
	for step := 0; step < 8; step++ {
		for seq := 0; seq < 6; seq++ {
			want := (seq + step) % n
			if got := DecodeOwner(seq, step, n); got != want {
				t.Fatalf("DecodeOwner(%d,%d,%d) = %d, want %d", seq, step, n, got, want)
			}
		}
	}
}

// The §3.6 motivation: with the offset rotation, after k steps every rank
// holds within 1 token of k*B/N decode KV entries; with a static owner, one
// rank takes everything for B < N.
func TestDecodeBalanceVersusStatic(t *testing.T) {
	n, batch, steps := 4, 1, 100
	rot := make([]int, n)
	static := make([]int, n)
	for s := 0; s < steps; s++ {
		for q := 0; q < batch; q++ {
			rot[DecodeOwner(q, s, n)]++
			static[StaticOwner(q, n)]++
		}
	}
	minR, maxR := rot[0], rot[0]
	for _, v := range rot {
		if v < minR {
			minR = v
		}
		if v > maxR {
			maxR = v
		}
	}
	if maxR-minR > 1 {
		t.Fatalf("rotating decode imbalance %d, want <= 1 (%v)", maxR-minR, rot)
	}
	if static[StaticOwner(0, n)] != steps {
		t.Fatalf("static owner should hold all %d tokens, got %v", steps, static)
	}
}

// Property: for any (T, N) the load-balanced per-rank causal pair counts
// differ by at most 2*ChunkLen*... — tighter: max-min <= 2*chunkLen pairs of
// slack arising only from tail padding. For T divisible by 2N, exactly 0.
func TestPropertyBalanceBound(t *testing.T) {
	f := func(rawT, rawN uint8) bool {
		n := int(rawN%7) + 1
		T := (int(rawT) + 1) * 2 * n // always divisible by 2N
		var first int64 = -1
		for r := 0; r < n; r++ {
			c := CausalPairs(LoadBalancedPositions(T, n, r))
			if first == -1 {
				first = c
			} else if c != first {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Shard followed by Unshard is the identity for random batches.
func TestPropertyShardUnshardIdentity(t *testing.T) {
	f := func(seed int64, rawN, rawB uint8) bool {
		n := int(rawN%4) + 1
		nSeq := int(rawB%3) + 1
		rng := rand.New(rand.NewSource(seed))
		lens := make([]int, nSeq)
		for i := range lens {
			lens[i] = rng.Intn(12) + 1
		}
		b, err := NewBatchShard(lens, n)
		if err != nil {
			return false
		}
		full := tensor.RandN(rng, b.TotalTokens(), 1, 2)
		locals := make([]*tensor.Tensor, n)
		for r := 0; r < n; r++ {
			locals[r] = b.Shard(full, r)
		}
		return tensor.MaxAbsDiff(full, b.Unshard(locals)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Reset rebuilds a plan in place as NewBatchShard would build it, through
// batches that grow, shrink, change world size and fail in between, and a
// plan reset to a shape no larger than one it held allocates nothing.
func TestBatchShardResetMatchesNew(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	rng := rand.New(rand.NewSource(3))
	var b BatchShard
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(4)
		lens := make([]int, 1+rng.Intn(4))
		for j := range lens {
			lens[j] = rng.Intn(40)
		}
		if i%17 == 0 {
			if err := b.Reset([]int{3, -1}, n); err == nil {
				t.Fatal("negative length accepted")
			}
		}
		if err := b.Reset(lens, n); err != nil {
			t.Fatal(err)
		}
		want, err := NewBatchShard(lens, n)
		if err != nil {
			t.Fatal(err)
		}
		if b.N != want.N || !slices.Equal(b.SeqLens, want.SeqLens) {
			t.Fatalf("reset %v over %d ranks: N %d, lengths %v", lens, n, b.N, b.SeqLens)
		}
		for s := range lens {
			if b.SeqOffset(s) != want.SeqOffset(s) || b.slots[s] != want.slots[s] {
				t.Fatalf("reset %v over %d ranks: sequence %d's offset or first slot differs", lens, n, s)
			}
		}
		for r := 0; r < n; r++ {
			if !slices.Equal(b.LocalPositions(r), want.LocalPositions(r)) || !slices.Equal(b.LocalSeqs(r), want.LocalSeqs(r)) {
				t.Fatalf("reset %v over %d ranks: rank %d's slots differ", lens, n, r)
			}
		}
	}
	big := []int{40, 40, 40, 40}
	if err := b.Reset(big, 4); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := b.Reset([]int{7, 40}, 3); err != nil {
			t.Fatal(err)
		}
		if err := b.Reset(big, 4); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm Reset allocated %.0f objects", allocs)
	}
}
