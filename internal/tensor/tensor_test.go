package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndZero(t *testing.T) {
	tt := New(3, 4, 5)
	if tt.NumElements() != 60 {
		t.Fatalf("NumElements = %d, want 60", tt.NumElements())
	}
	for i, v := range tt.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestFromDataLengthMismatch(t *testing.T) {
	if _, err := FromData(2, 2, 2, make([]float32, 7)); err == nil {
		t.Fatal("FromData accepted mismatched length")
	}
	ten, err := FromData(2, 2, 2, make([]float32, 8))
	if err != nil || ten == nil {
		t.Fatalf("FromData rejected valid input: %v", err)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	tt := New(4, 3, 2)
	for i := range tt.Data {
		tt.Data[i] = float32(i)
	}
	n := 0
	for tok := 0; tok < 4; tok++ {
		for h := 0; h < 3; h++ {
			for d := 0; d < 2; d++ {
				if got := tt.Row(tok, h)[d]; got != float32(n) {
					t.Fatalf("Row(%d,%d)[%d] = %v, want %d", tok, h, d, got, n)
				}
				n++
			}
		}
	}
}

func TestSetAtRow(t *testing.T) {
	tt := New(2, 2, 3)
	tt.Row(1, 1)[2] = 42
	row := tt.Row(1, 1)
	if row[2] != 42 {
		t.Fatalf("Row view = %v, want last element 42", row)
	}
	row[0] = 7 // row must alias the tensor
	if tt.Data[(1*2+1)*3] != 7 {
		t.Fatal("Row did not alias underlying storage")
	}
}

func TestSliceTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandN(rng, 6, 2, 3)
	s := a.SliceTokens(2, 5)
	if s.Tokens != 3 {
		t.Fatalf("slice tokens = %d, want 3", s.Tokens)
	}
	for tok := 0; tok < 3; tok++ {
		for h := 0; h < 2; h++ {
			for d := 0; d < 3; d++ {
				if s.Row(tok, h)[d] != a.Row(tok+2, h)[d] {
					t.Fatalf("slice element (%d,%d,%d) mismatch", tok, h, d)
				}
			}
		}
	}
}

func TestSliceTokensPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SliceTokens out of range did not panic")
		}
	}()
	New(3, 1, 1).SliceTokens(1, 5)
}

func TestGather(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandN(rng, 5, 2, 2)
	g := a.Gather([]int{4, 0, 4})
	if g.Tokens != 3 {
		t.Fatalf("gather tokens = %d, want 3", g.Tokens)
	}
	for h := 0; h < 2; h++ {
		for d := 0; d < 2; d++ {
			if g.Row(0, h)[d] != a.Row(4, h)[d] || g.Row(1, h)[d] != a.Row(0, h)[d] || g.Row(2, h)[d] != a.Row(4, h)[d] {
				t.Fatal("gather order wrong")
			}
		}
	}
}

func TestConcatAndSliceInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandN(rng, 4, 2, 3)
	b := RandN(rng, 2, 2, 3)
	c := Concat(a, nil, b, New(0, 2, 3))
	if c.Tokens != 6 {
		t.Fatalf("concat tokens = %d, want 6", c.Tokens)
	}
	if MaxAbsDiff(c.SliceTokens(0, 4), a) != 0 || MaxAbsDiff(c.SliceTokens(4, 6), b) != 0 {
		t.Fatal("concat does not round-trip with slice")
	}
}

func TestConcatEmpty(t *testing.T) {
	c := Concat()
	if c.Tokens != 0 || c.NumElements() != 0 {
		t.Fatalf("empty concat = %s", c.ShapeString())
	}
}

func TestConcatShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("concat with mismatched shapes did not panic")
		}
	}()
	Concat(New(1, 2, 3), New(1, 3, 2))
}

func TestAllCloseAndMaxAbsDiff(t *testing.T) {
	a := New(2, 2, 2)
	b := New(2, 2, 2)
	b.Data[3] = 1e-5
	if d := MaxAbsDiff(a, b); d < 9e-6 || d > 1.1e-5 {
		t.Fatalf("MaxAbsDiff = %v, want ~1e-5 (float32 rounding)", d)
	}
}

func TestBytes(t *testing.T) {
	a := New(4, 2, 8) // 64 elements
	if got := a.Bytes(2); got != 128 {
		t.Fatalf("Bytes(bf16) = %v, want 128", got)
	}
	if got := a.Bytes(1); got != 64 {
		t.Fatalf("Bytes(fp8) = %v, want 64", got)
	}
}

func TestDotAxpy(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestRandNDeterministic(t *testing.T) {
	a := RandN(rand.New(rand.NewSource(9)), 3, 2, 4)
	b := RandN(rand.New(rand.NewSource(9)), 3, 2, 4)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("RandN not deterministic for equal seeds")
	}
}

// Property: Concat(SliceTokens(0,k), SliceTokens(k,n)) == identity for any
// split point k.
func TestPropertySplitConcatIdentity(t *testing.T) {
	f := func(seed int64, rawTok, rawK uint8) bool {
		tokens := int(rawTok%16) + 1
		k := int(rawK) % (tokens + 1)
		rng := rand.New(rand.NewSource(seed))
		a := RandN(rng, tokens, 2, 3)
		b := Concat(a.SliceTokens(0, k), a.SliceTokens(k, tokens))
		return MaxAbsDiff(a, b) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gather with the identity permutation is a no-op, and gathering a
// permutation twice with its inverse restores the original tensor.
func TestPropertyGatherPermutationInverse(t *testing.T) {
	f := func(seed int64, rawTok uint8) bool {
		tokens := int(rawTok%12) + 1
		rng := rand.New(rand.NewSource(seed))
		a := RandN(rng, tokens, 1, 4)
		perm := rng.Perm(tokens)
		inv := make([]int, tokens)
		for i, p := range perm {
			inv[p] = i
		}
		return MaxAbsDiff(a.Gather(perm).Gather(inv), a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
