package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attention"
	"repro/internal/tensor"
	"repro/internal/testsupport"
	"repro/internal/trace"
)

// trickyFloats are the values a lossy or text-based codec mangles: NaN
// payload bits, signed zeros, denormals, infinities, and extreme exponents.
// Bit-identity across processes requires all of them to survive unchanged.
var trickyFloats = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.NaN()), math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00123),
	math.Float32frombits(1), math.Float32frombits(0x00000fff), // denormals
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32,
	1.5e-39, // subnormal range
}

func randTensor(rng *rand.Rand, tokens, heads, dim int) *tensor.Tensor {
	t := tensor.New(tokens, heads, dim)
	for i := range t.Data {
		if rng.Intn(4) == 0 {
			t.Data[i] = trickyFloats[rng.Intn(len(trickyFloats))]
		} else {
			t.Data[i] = float32(rng.NormFloat64())
		}
	}
	return t
}

// roundTrip encodes v, decodes it back, and checks exact (bitwise for
// floats) equality via reflect.DeepEqual — NaN != NaN under ==, but
// DeepEqual on float bit patterns holds only if... it does not: DeepEqual
// uses ==. So tensors are compared bit-for-bit explicitly.
func roundTrip(t *testing.T, v any) any {
	t.Helper()
	b, err := Append(nil, v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return got
}

func sameTensor(t *testing.T, a, b *tensor.Tensor) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("tensor nil mismatch: %v vs %v", a == nil, b == nil)
	}
	if a == nil {
		return
	}
	if a.Tokens != b.Tokens || a.Heads != b.Heads || a.Dim != b.Dim {
		t.Fatalf("shape mismatch: [%d %d %d] vs [%d %d %d]", a.Tokens, a.Heads, a.Dim, b.Tokens, b.Heads, b.Dim)
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			t.Fatalf("data[%d] bits %08x vs %08x", i, math.Float32bits(a.Data[i]), math.Float32bits(b.Data[i]))
		}
	}
}

func TestKVBlockRoundTripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		tok := rng.Intn(17)
		blk := &KVBlock{
			K:   randTensor(rng, tok, 2, 8),
			V:   randTensor(rng, tok, 2, 8),
			Pos: randInts(rng, tok),
			Seq: randInts(rng, tok),
		}
		got := roundTrip(t, blk).(*KVBlock)
		sameTensor(t, blk.K, got.K)
		sameTensor(t, blk.V, got.V)
		if !equalInts(blk.Pos, got.Pos) || !equalInts(blk.Seq, got.Seq) {
			t.Fatalf("metadata mismatch: %v/%v vs %v/%v", blk.Pos, blk.Seq, got.Pos, got.Seq)
		}
	}
}

func randInts(rng *rand.Rand, n int) []int {
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(1000) - 1 // includes -1 padding markers
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQBlockAndOBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := &QBlock{Q: randTensor(rng, 5, 4, 8), Pos: []int{-1, 0, 3, 9, 2}, Seq: []int{-1, 0, 0, 1, 2}}
	gq := roundTrip(t, q).(*QBlock)
	sameTensor(t, q.Q, gq.Q)
	if !equalInts(q.Pos, gq.Pos) || !equalInts(q.Seq, gq.Seq) {
		t.Fatal("qblock metadata mismatch")
	}

	out := &attention.Output{O: randTensor(rng, 3, 4, 8), LSE: []float64{
		math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), 1e-310, 42,
		math.Inf(1), -1e300, 5e-324, 1, 2, 3,
	}}
	ob := roundTrip(t, &OBlock{Out: out}).(*OBlock)
	sameTensor(t, out.O, ob.Out.O)
	for i := range out.LSE {
		if math.Float64bits(out.LSE[i]) != math.Float64bits(ob.Out.LSE[i]) {
			t.Fatalf("LSE[%d] bits differ", i)
		}
	}
}

func TestEmptyTensorsAndVectors(t *testing.T) {
	blk := &KVBlock{K: tensor.New(0, 2, 8), V: tensor.New(0, 2, 8)}
	got := roundTrip(t, blk).(*KVBlock)
	sameTensor(t, blk.K, got.K)
	if got.Pos != nil || got.Seq != nil {
		t.Fatalf("empty metadata decoded as %v/%v", got.Pos, got.Seq)
	}
	if v := roundTrip(t, []int(nil)); v.([]int) != nil {
		t.Fatalf("nil intvec decoded as %v", v)
	}
	if v := roundTrip(t, nil); v != nil {
		t.Fatalf("nil payload decoded as %v", v)
	}
	if v := roundTrip(t, &PrefillResult{}); v.(*PrefillResult).Logits != nil {
		t.Fatal("nil logits decoded as tensor")
	}
}

func TestControlFrameRoundTrip(t *testing.T) {
	frames := []any{
		&Hello{Magic: Magic, Version: Version, World: 3, Rank: -1, ConfigSum: 0xdeadbeefcafef00d, Epoch: 7},
		&Heartbeat{},
		&FailureNote{Rank: 2, Cause: "link to rank 1 failed: connection reset"},
		&PrefillCmd{Seqs: []int{7, 9}, Tokens: [][]int{{1, 2, 3}, {4}}, P: []int{0, 32}, Variant: 1},
		&DecodeCmd{Seqs: []int{1, 2}, Tokens: []int{5, 6}, Pos: []int{10, 20}, Owners: []int{0, 2}},
		&DropCmd{Seq: 4},
		&DetachCmd{Seq: 1, UpTo: 64, ID: 99},
		&AdoptCmd{Seq: 2, ID: 99},
		&ReleasePrefixCmd{ID: 99},
		&CapQueryCmd{Seqs: []int{1, 2, 3}},
		&StatsCmd{},
		&ShutdownCmd{},
		&DecodeResult{Flat: []float32{1, 2, 3}, Err: ""},
		&Ack{Err: "boom"},
		&DetachResult{Tokens: 16},
		&CapResult{Avail: 3, Overhead: []int{1, 2}, Err: ""},
		&StatsResult{
			CacheTokens: 77, Assembly: []int64{1, 2, 3, 4, 5},
			Kinds: []string{"allgather", "sendrecv"}, Msgs: []int64{3, 9}, Bytes: []float64{12.5, 900},
			Links: []LinkStat{{Src: 0, Dst: 1, Messages: 4, Bytes: 100.25, WireMsgs: 6, WireBytes: 512}},
			Err:   "",
		},
	}
	for _, f := range frames {
		got := roundTrip(t, f)
		if !reflect.DeepEqual(f, got) {
			t.Fatalf("round trip of %T: %#v vs %#v", f, f, got)
		}
	}
}

// TestTruncatedFramesRejected checks that every strict prefix of a valid
// encoding fails with an error — never a panic, never a silent partial
// decode.
func TestTruncatedFramesRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	payloads := []any{
		&KVBlock{K: randTensor(rng, 4, 2, 8), V: randTensor(rng, 4, 2, 8), Pos: []int{0, 1, 2, 3}, Seq: []int{0, 0, 1, 1}},
		&PrefillCmd{Seqs: []int{1}, Tokens: [][]int{{1, 2}}, P: []int{0}},
		&StatsResult{Kinds: []string{"x"}, Msgs: []int64{1}, Links: []LinkStat{{Src: 1, Dst: 2}}},
		&Hello{Magic: Magic, Version: Version, World: 2, Rank: 0},
	}
	for _, p := range payloads {
		b, err := Append(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := Decode(b[:cut]); err == nil {
				t.Fatalf("%T truncated to %d/%d bytes decoded without error", p, cut, len(b))
			}
		}
		// Trailing garbage is rejected too.
		if _, err := Decode(append(append([]byte(nil), b...), 0xee)); err == nil {
			t.Fatalf("%T with trailing byte decoded without error", p)
		}
	}
}

// A reply mode travels as one byte, and a mode the command does not take —
// ReplyAll on a decode step, anything past ReplyAll on a prefill — fails to
// encode and fails to decode, so no frame on the wire asks for a reply that
// means nothing.
func TestReplyModeOutsideTheCommandRejected(t *testing.T) {
	for _, bad := range []any{
		&DecodeCmd{Seqs: []int{1}, Tokens: []int{2}, Pos: []int{3}, Owners: []int{0}, Reply: ReplyAll},
		&PrefillCmd{Seqs: []int{1}, Tokens: [][]int{{2}}, P: []int{0}, Reply: ReplyAll + 1},
	} {
		if b, err := Append([]byte{0xaa}, bad); err == nil || !bytes.Equal(b, []byte{0xaa}) {
			t.Fatalf("%T with an out-of-range reply mode encoded as %x (%v)", bad, b, err)
		}
	}
	for _, tc := range []struct {
		v    any
		last Reply
	}{
		{&DecodeCmd{Seqs: []int{1}, Tokens: []int{2}, Pos: []int{3}, Owners: []int{0}, Reply: ReplyToken}, ReplyToken},
		{&PrefillCmd{Seqs: []int{1}, Tokens: [][]int{{2}}, P: []int{0}, Reply: ReplyAll}, ReplyAll},
	} {
		b, err := Append(nil, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		for mode := Reply(0); mode <= tc.last+1; mode++ {
			b[len(b)-1] = byte(mode) // the reply byte closes both layouts
			_, err := Decode(b)
			if (err == nil) != (mode <= tc.last) {
				t.Fatalf("%T with reply mode %d decoded with error %v", tc.v, mode, err)
			}
		}
	}
}

// A span's arguments and a series' labels travel in ascending key order, so
// a drain has one encoding: an argument map encodes sorted whatever order it
// iterates in, a label set out of order fails to encode, and a frame with
// either out of order fails to decode.
func TestTraceDrainKeysAscend(t *testing.T) {
	swapped := func(v any, lo, hi byte) []byte {
		t.Helper()
		b, err := Append(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		i, j := bytes.IndexByte(b, lo), bytes.IndexByte(b, hi)
		if i < 0 || j < i {
			t.Fatalf("keys %q and %q not in ascending order in %x", lo, hi, b)
		}
		b[i], b[j] = hi, lo
		return b
	}
	for _, b := range [][]byte{
		swapped(&StatsResult{Spans: []trace.Span{{Name: "s", Args: map[string]int64{"y": 2, "x": 1}}}}, 'x', 'y'),
		swapped(&StatsResult{Series: []trace.SeriesSnap{{Name: "s", Labels: []trace.Label{trace.L("a", "1"), trace.L("b", "2")}}}}, 'a', 'b'),
	} {
		if v, err := Decode(b); err == nil {
			t.Fatalf("%x decoded as %+v with its keys out of order", b, v)
		}
	}
	unsorted := &StatsResult{Series: []trace.SeriesSnap{{Name: "s", Labels: []trace.Label{trace.L("b", "1"), trace.L("a", "2")}}}}
	if b, err := Append(nil, unsorted); err == nil {
		t.Fatalf("a label set out of order encoded as %x", b)
	}
}

// A reader decodes every prefill and decode result into the one frame of
// its kind it keeps — a stream of token replies allocates
// nothing once that frame has grown — and each read still equals a fresh
// decode. Other frames decode fresh, and a result past the keep bound is
// not kept.
func TestKeptRepliesReuseOneFrame(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	var stream bytes.Buffer
	var w Writer
	frames := []any{
		&DecodeResult{IDs: []int32{4, 5, 6}},
		&Ack{Err: "x"},
		&DecodeResult{IDs: []int32{7}, Err: "late"},
		&PrefillResult{IDs: []int32{1, 2}},
		&PrefillResult{Logits: tensor.New(1, 1, 3)},
	}
	for _, v := range frames {
		if _, err := w.WriteFrame(&stream, v); err != nil {
			t.Fatal(err)
		}
	}
	var rd Reader
	seen := map[byte]any{}
	for i, want := range frames {
		got, _, err := rd.ReadFrame(&stream, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Append(nil, got)
		if wb, _ := Append(nil, want); !bytes.Equal(b, wb) {
			t.Fatalf("frame %d read as %#v, want %#v", i, got, want)
		}
		if prev, ok := seen[b[0]]; ok && prev != got && b[0] != tAck {
			t.Fatalf("frame %d: a second %T decoded into a new frame", i, got)
		}
		seen[b[0]] = got
	}
	var src bytes.Reader
	one := func(v any) any {
		t.Helper()
		b, err := w.Frame(v)
		if err != nil {
			t.Fatal(err)
		}
		src.Reset(b)
		got, _, err := rd.ReadFrame(&src, 0)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	ids := &DecodeResult{IDs: []int32{1, 2, 3, 4, 5, 6, 7, 8}}
	one(ids)
	if allocs := testing.AllocsPerRun(50, func() { one(ids) }); allocs != 0 {
		t.Fatalf("a kept token reply allocates %.0f objects per read", allocs)
	}
	huge := &PrefillResult{Logits: tensor.New(1, 1, maxKept/4+1)}
	if first := one(huge); one(huge) == first {
		t.Fatal("a result past the keep bound was kept")
	}
}

// A worker's end of a control connection decodes every prefill and decode
// command into the one frame of its kind the reader keeps: a stream of
// decode steps allocates nothing once that frame has grown, and each read
// equals a fresh decode, a shorter command after a longer one included. A
// command past the keep bound is not kept.
func TestKeptCommandsReuseOneFrame(t *testing.T) {
	if testsupport.Alone(t) {
		return
	}
	var w Writer
	var rd Reader
	var src bytes.Reader
	one := func(v any) any {
		t.Helper()
		b, err := w.Frame(v)
		if err != nil {
			t.Fatal(err)
		}
		src.Reset(b)
		got, _, err := rd.ReadFrame(&src, 0)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	same := func(v any) any {
		t.Helper()
		got := one(v)
		gb, _ := Append(nil, got)
		if wb, _ := Append(nil, v); !bytes.Equal(gb, wb) {
			t.Fatalf("read %#v, want %#v", got, v)
		}
		return got
	}
	long := &DecodeCmd{Seqs: []int{1, 2, 3, 4, 5, 6, 7, 8}, Tokens: []int{9, 8, 7, 6, 5, 4, 3, 2},
		Pos: []int{512, 513, 514, 515, 516, 517, 518, 519}, Owners: []int{0, 1, 1, 0, 1, 0, 0, 1}, Reply: ReplyToken}
	short := &DecodeCmd{Seqs: []int{3}, Tokens: []int{4}, Pos: []int{5}, Owners: []int{1}, Reply: ReplyLast}
	first := same(long)
	if same(short) != first || same(long) != first {
		t.Fatal("a second decode command decoded into a new frame")
	}
	if allocs := testing.AllocsPerRun(50, func() { one(long) }); allocs != 0 {
		t.Fatalf("a kept decode command allocates %.0f objects per read", allocs)
	}
	pre := &PrefillCmd{Seqs: []int{1, 2}, Tokens: [][]int{{1, 2, 3}, {4}}, P: []int{0, 7}, Variant: 1, Reply: ReplyToken}
	if got := same(pre); same(&PrefillCmd{Seqs: []int{5}, Tokens: [][]int{{6, 7}}, P: []int{3}, Reply: ReplyAll}) != got {
		t.Fatal("a second prefill command decoded into a new frame")
	}
	huge := &PrefillCmd{Seqs: []int{1}, Tokens: [][]int{make([]int, maxKept/8+1)}, P: []int{0}, Reply: ReplyLast}
	if first := one(huge); one(huge) == first {
		t.Fatal("a command past the keep bound was kept")
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	if _, err := Decode([]byte{0xf7}); err == nil {
		t.Fatal("unknown type id accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
}

func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	want := &DecodeCmd{Seqs: []int{1}, Tokens: []int{2}, Pos: []int{3}, Owners: []int{0}}
	n, err := WriteFrame(&buf, want)
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("WriteFrame reported %d bytes, wrote %d", n, buf.Len())
	}
	got, rn, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rn != n {
		t.Fatalf("ReadFrame consumed %d of %d bytes", rn, n)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("frame round trip: %#v vs %#v", want, got)
	}

	// A frame longer than the cap is rejected before allocation.
	buf.Reset()
	if _, err := WriteFrame(&buf, &DropCmd{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(&buf, 4); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestFrameIntegrity pins down the CRC32C trailer contract: every
// single-bit corruption of a frame's payload or trailer is rejected with
// ErrIntegrity (link damage, retryable), truncated frames fail without ever
// reaching the decoder, and a frame whose CRC is valid but whose payload is
// semantically bad fails with ErrBadFrame (protocol mismatch, fatal) — the
// two failure classes must never blur, because the transport routes them
// differently.
func TestFrameIntegrity(t *testing.T) {
	frame, err := AppendFrame(nil, &DecodeCmd{Seqs: []int{1, 2}, Tokens: []int{5, 6}, Pos: []int{3, 4}, Owners: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}

	// Pristine frame reads back and bumps only the checked counter.
	c0, r0 := IntegrityStats()
	if _, _, err := ReadFrame(bytes.NewReader(frame), 0); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	c1, r1 := IntegrityStats()
	if c1 != c0+1 || r1 != r0 {
		t.Fatalf("counters after clean read: checked %d->%d rejected %d->%d", c0, c1, r0, r1)
	}

	// Every single-bit flip past the length prefix — payload bytes and CRC
	// trailer alike — must surface as ErrIntegrity, and each must bump the
	// rejected counter.
	for i := 4; i < len(frame); i++ {
		for bit := 0; bit < 8; bit++ {
			mangled := append([]byte(nil), frame...)
			mangled[i] ^= 1 << bit
			_, _, err := ReadFrame(bytes.NewReader(mangled), 0)
			if !errors.Is(err, ErrIntegrity) {
				t.Fatalf("flip byte %d bit %d: got %v, want ErrIntegrity", i, bit, err)
			}
		}
	}
	c2, r2 := IntegrityStats()
	wantFlips := int64((len(frame) - 4) * 8)
	if r2-r1 != wantFlips || c2-c1 != wantFlips {
		t.Fatalf("counters after %d flips: checked +%d rejected +%d", wantFlips, c2-c1, r2-r1)
	}

	// Truncation at every boundary: an incomplete frame errors out (short
	// header, short body) and never reaches the decoder as garbage.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := ReadFrame(bytes.NewReader(frame[:cut]), 0); err == nil {
			t.Fatalf("frame truncated to %d/%d bytes accepted", cut, len(frame))
		}
	}

	// CRC-valid but semantically bad: a correctly framed unknown type id
	// passes the integrity check and must fail as ErrBadFrame, NOT
	// ErrIntegrity — the bytes arrived exactly as sent.
	bogus := []byte{0xf7, 0x01, 0x02}
	bad := binary.LittleEndian.AppendUint32(nil, uint32(len(bogus)+4))
	bad = append(bad, bogus...)
	bad = binary.LittleEndian.AppendUint32(bad, crc32.Checksum(bogus, castagnoli))
	_, _, err = ReadFrame(bytes.NewReader(bad), 0)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("CRC-valid undecodable frame: got %v, want ErrBadFrame", err)
	}
	if errors.Is(err, ErrIntegrity) {
		t.Fatal("intact-but-undecodable frame misclassified as integrity failure")
	}

	// Duplicate delivery: the same frame twice on one stream reads as two
	// identical payloads — framing resynchronizes at every length prefix, so
	// a chaos-duplicated frame cannot shear the ones after it.
	dup := append(append([]byte(nil), frame...), frame...)
	rd := bytes.NewReader(dup)
	for i := 0; i < 2; i++ {
		v, _, err := ReadFrame(rd, 0)
		if err != nil {
			t.Fatalf("duplicate read %d: %v", i, err)
		}
		if _, ok := v.(*DecodeCmd); !ok {
			t.Fatalf("duplicate read %d: got %T", i, v)
		}
	}
}

// TestHelloVersionGate documents the rendezvous rule the transport enforces:
// a Hello with the wrong magic or version must be detectable from the frame
// alone.
func TestHelloVersionGate(t *testing.T) {
	h := &Hello{Magic: Magic, Version: Version + 1, World: 2, Rank: 0}
	got := roundTrip(t, h).(*Hello)
	if got.Version == Version {
		t.Fatal("version not preserved")
	}
	bad := &Hello{Magic: 0x12345678, Version: Version}
	if roundTrip(t, bad).(*Hello).Magic == Magic {
		t.Fatal("magic not preserved")
	}
}

// FuzzDecode feeds arbitrary bytes to the decoder; any panic or runaway
// allocation is a bug. Valid corpus entries check encode/decode/encode
// stability.
func FuzzDecode(f *testing.F) {
	for _, s := range goldenPayloads() {
		b, err := Append(nil, s.v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		if err != nil {
			return
		}
		// Valid frames re-encode to exactly the input: the codec has one
		// canonical encoding per value (determinism), except that nil and
		// empty slices share the count-0 form — which Decode normalizes to
		// nil, so a decoded value always re-encodes canonically.
		b2, err := Append(nil, v)
		if err != nil {
			t.Fatalf("re-encode of decoded %T failed: %v", v, err)
		}
		if !bytes.Equal(data, b2) {
			t.Fatalf("non-canonical encoding: %x decoded to %T re-encoding %x", data, v, b2)
		}
	})
}

// FuzzReadFrame feeds arbitrary byte streams to the framed reader. The
// invariant: a frame either reads back cleanly or fails with a classified
// error — short/IO, ErrBadFrame, or ErrIntegrity — never a panic; and any
// frame whose CRC trailer does not match its payload must fail with
// exactly ErrIntegrity. Corpus entries cover the clean frame, a corrupted
// payload byte, a corrupted trailer, a CRC-valid undecodable payload, a
// short KV block, a frame cut short, a token-mode decode result and a
// CRC-valid decode command whose reply mode it does not take. Each input is
// also read through a reader that read longer frames first, holds their
// block as a spare and keeps their commands and results: the outcome must
// be a fresh reader's, so no stale byte of a longer body, block, command or
// result ever decodes.
func FuzzReadFrame(f *testing.F) {
	clean, err := AppendFrame(nil, &DecodeCmd{Seqs: []int{1}, Tokens: []int{2}, Pos: []int{3}, Owners: []int{0}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), clean...))
	corruptBody := append([]byte(nil), clean...)
	corruptBody[5] ^= 0x40
	f.Add(corruptBody)
	corruptTrailer := append([]byte(nil), clean...)
	corruptTrailer[len(corruptTrailer)-1] ^= 0x01
	f.Add(corruptTrailer)
	bogus := []byte{0xf7, 0xaa}
	goodCRCBadPayload := binary.LittleEndian.AppendUint32(nil, uint32(len(bogus)+4))
	goodCRCBadPayload = append(goodCRCBadPayload, bogus...)
	goodCRCBadPayload = binary.LittleEndian.AppendUint32(goodCRCBadPayload, crc32.Checksum(bogus, castagnoli))
	f.Add(goodCRCBadPayload)
	rng := rand.New(rand.NewSource(5))
	short, err := AppendFrame(nil, &KVBlock{K: randTensor(rng, 2, 1, 4), V: randTensor(rng, 2, 1, 4), Pos: []int{0, 1}, Seq: []int{0, 0}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(short)
	f.Add(short[:len(short)-3])
	tokens, err := AppendFrame(nil, &DecodeResult{IDs: []int32{3, 511}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tokens)
	badReply := append([]byte(nil), clean...)
	badReply[len(badReply)-5] = byte(ReplyAll) // DecodeCmd's reply byte, before the trailer
	binary.LittleEndian.PutUint32(badReply[len(badReply)-4:], crc32.Checksum(badReply[4:len(badReply)-4], castagnoli))
	f.Add(badReply)
	long, err := AppendFrame(nil, &KVBlock{K: randTensor(rng, 64, 2, 8), V: randTensor(rng, 64, 2, 8), Pos: randInts(rng, 64), Seq: randInts(rng, 64)})
	if err != nil {
		f.Fatal(err)
	}
	longReplies := [][]byte{}
	for _, v := range []any{
		&PrefillResult{Logits: randTensor(rng, 9, 1, 16), IDs: []int32{1, 2, 3, 4, 5, 6}, Err: "an earlier, longer error"},
		&DecodeResult{Flat: make([]float32, 40), IDs: []int32{9, 8, 7, 6, 5, 4, 3}, Err: "an earlier, longer error"},
		&PrefillCmd{Seqs: []int{1, 2, 3}, Tokens: [][]int{{4, 5, 6, 7}, {8}, {9, 10}}, P: []int{0, 16, 32}, Variant: 1, Reply: ReplyLast},
		&DecodeCmd{Seqs: []int{1, 2, 3, 4}, Tokens: []int{5, 6, 7, 8}, Pos: []int{9, 10, 11, 12}, Owners: []int{0, 1, 0, 1}, Reply: ReplyToken},
	} {
		b, err := AppendFrame(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		longReplies = append(longReplies, b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := ReadFrame(bytes.NewReader(data), 0)
		rd := Reader{Spares: NewSpares(1)}
		first, _, ferr := rd.ReadFrame(bytes.NewReader(long), 0)
		if ferr != nil {
			t.Fatalf("long frame: %v", ferr)
		}
		rd.Spares.Put(first)
		for _, b := range longReplies {
			if _, _, err := rd.ReadFrame(bytes.NewReader(b), 0); err != nil {
				t.Fatalf("long reply: %v", err)
			}
		}
		rv, rn, rerr := rd.ReadFrame(bytes.NewReader(data), 0)
		if rn != n || (rerr == nil) != (err == nil) || (err != nil && rerr.Error() != err.Error()) {
			t.Fatalf("reused reader read %d bytes (%v), a fresh one %d (%v)", rn, rerr, n, err)
		}
		if err == nil {
			// Whatever decoded must hold the framing invariant: the bytes
			// consumed form a self-consistent frame (length, CRC) for v.
			if v == nil || n < 9 || n > len(data) {
				t.Fatalf("clean read of %d/%d bytes returned %T", n, len(data), v)
			}
			want, err1 := Append(nil, v)
			got, err2 := Append(nil, rv)
			if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
				t.Fatalf("reused reader decoded %x (%v), a fresh one %x (%v)", got, err2, want, err1)
			}
			return
		}
		// Independent CRC verdict for complete frames: mismatch must have
		// been classified as ErrIntegrity, and a match must not be.
		if len(data) >= 4 {
			fn := int(binary.LittleEndian.Uint32(data[:4]))
			if fn >= 5 && fn <= len(data)-4 {
				body := data[4 : 4+fn]
				match := crc32.Checksum(body[:fn-4], castagnoli) == binary.LittleEndian.Uint32(body[fn-4:])
				if !match && !errors.Is(err, ErrIntegrity) && !errors.Is(err, ErrBadFrame) {
					t.Fatalf("complete damaged frame failed unclassified: %v", err)
				}
				if !match && errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrIntegrity) {
					// Length-sanity rejections (fn > maxFrame handled above by
					// bounds) aside, a CRC mismatch on a plausible frame must
					// be integrity, not protocol.
					t.Fatalf("CRC mismatch classified as ErrBadFrame: %v", err)
				}
				if match && errors.Is(err, ErrIntegrity) {
					t.Fatalf("CRC-valid frame classified as integrity failure: %v", err)
				}
			}
		}
	})
}
