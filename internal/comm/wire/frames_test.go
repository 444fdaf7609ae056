package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/attention"
	"repro/internal/tensor"
)

var updateFrames = flag.Bool("update", false, "rewrite testdata/frames.golden from the current codec")

const framesGolden = "testdata/frames.golden"

// goldenTensor is a deterministic tensor whose values walk through
// trickyFloats, so the golden frames pin the bit pattern of every special
// value.
func goldenTensor(tokens, heads, dim int, salt int) *tensor.Tensor {
	t := tensor.New(tokens, heads, dim)
	for i := range t.Data {
		if i%3 == 0 {
			t.Data[i] = trickyFloats[(i/3+salt)%len(trickyFloats)]
		} else {
			t.Data[i] = float32(i+salt) / 8
		}
	}
	return t
}

type namedPayload struct {
	name string
	v    any
}

// goldenPayloads is one populated instance of every frame kind plus the
// nil-tensor and empty-vector variants: the byte-identity golden and the
// FuzzDecode seed corpus.
func goldenPayloads() []namedPayload {
	return []namedPayload{
		{"nil", nil},
		{"intvec", []int{1, -1, 1 << 40, math.MinInt64}},
		{"intvec-empty", []int{}},
		{"floatvec", []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), 5e-324, 1.5}},
		{"floatvec-empty", []float64{}},
		{"kvblock", &KVBlock{K: goldenTensor(3, 2, 4, 0), V: goldenTensor(3, 2, 4, 1), Pos: []int{0, 1, -1}, Seq: []int{0, 0, -1}}},
		{"kvblock-nil-tensors", &KVBlock{Pos: []int{-1}, Seq: []int{-1}}},
		{"qblock", &QBlock{Q: goldenTensor(2, 4, 4, 2), Pos: []int{5, 6}, Seq: []int{1, 1}}},
		{"oblock", &OBlock{Out: &attention.Output{O: goldenTensor(2, 2, 4, 3), LSE: []float64{0, math.Inf(-1), -2.5, 1e300}}}},
		{"hello", &Hello{Magic: Magic, Version: Version, World: 3, Rank: -1, ConfigSum: 0xdeadbeefcafef00d, Epoch: 7}},
		{"heartbeat", &Heartbeat{}},
		{"prefillcmd", &PrefillCmd{Seqs: []int{7, 9}, Tokens: [][]int{{1, 2, 3}, {4}}, P: []int{0, 32}, Variant: 1, Reply: ReplyAll}},
		{"prefillcmd-token", &PrefillCmd{Seqs: []int{3}, Tokens: [][]int{{8, 1}}, P: []int{16}, Variant: 0, Reply: ReplyToken}},
		{"decodecmd", &DecodeCmd{Seqs: []int{1, 2}, Tokens: []int{5, 6}, Pos: []int{10, 20}, Owners: []int{0, 2}}},
		{"decodecmd-token", &DecodeCmd{Seqs: []int{1, 2}, Tokens: []int{5, 6}, Pos: []int{10, 20}, Owners: []int{0, 2}, Reply: ReplyToken}},
		{"dropcmd", &DropCmd{Seq: 4}},
		{"detachcmd", &DetachCmd{Seq: 1, UpTo: 64, ID: 99}},
		{"adoptcmd", &AdoptCmd{Seq: 2, ID: 1 << 63}},
		{"releaseprefixcmd", &ReleasePrefixCmd{ID: 99}},
		{"capquerycmd", &CapQueryCmd{Seqs: []int{1, 2, 3}}},
		{"statscmd", &StatsCmd{}},
		{"shutdowncmd", &ShutdownCmd{}},
		{"prefillresult", &PrefillResult{Logits: goldenTensor(2, 1, 5, 4), Err: "partial"}},
		{"prefillresult-nil-logits", &PrefillResult{Err: "no logits"}},
		{"prefillresult-token", &PrefillResult{IDs: []int32{0, 511, math.MaxInt32}}},
		{"decoderesult", &DecodeResult{Flat: []float32{1, float32(math.Inf(1)), -0.5}, Err: ""}},
		{"decoderesult-token", &DecodeResult{IDs: []int32{7, -1}, Err: ""}},
		{"ack", &Ack{Err: "boom"}},
		{"detachresult", &DetachResult{PerLayer: []int{16, 16}, Err: "x"}},
		{"capresult", &CapResult{Capacity: 128, Avail: []int{3, 4}, Overhead: [][]int{{0, 1}, {2, 0}}, Err: "cap"}},
		{"statsresult", &StatsResult{
			CacheTokens: 77, Assembly: []int64{1, 2, 3, 4, 5},
			Kinds: []string{"allgather", "sendrecv"}, Msgs: []int64{3, 9}, Bytes: []float64{12.5, 900},
			Links: []LinkStat{
				{Src: 0, Dst: 1, Messages: 4, Bytes: 100.25, WireMsgs: 6, WireBytes: 512},
				{Src: -1, Dst: 0, Messages: 1, Bytes: 8, WireMsgs: 2, WireBytes: 64},
			},
			IntegrityChecked: 1234, IntegrityRejected: 2,
			ChaosKinds: []string{"corrupt", "crash"}, ChaosCounts: []int64{3, 1},
			Err: "stats",
		}},
		{"failurenote", &FailureNote{Rank: 2, Cause: "link to rank 1 failed: connection reset"}},
		{"tracecmd", &TraceCmd{}},
		{"traceresult", &TraceResult{
			Rank: 1,
			Spans: []TraceSpan{
				{Name: "prefill", Cat: "ring", Rank: 1, Seq: 3, Epoch: 2, Index: 9, Start: -5, Dur: 1200,
					ArgKeys: []string{"chunk", "tokens"}, ArgVals: []int64{0, 512}},
				{Name: "decode", Cat: "ring", Rank: 1, Seq: -1, Epoch: 2, Index: 10, Start: 7, Dur: 30},
			},
			Series: []TraceSeries{
				{Name: "cp_ring_sweeps_total", LabelKeys: []string{"op"}, LabelVals: []string{"decode"}, Kind: 0, Value: 4},
				{Name: "cp_step_seconds", Kind: 2, Count: 3, Sum: 0.25, Counts: []int64{1, 2, 0}},
			},
			Err: "trace",
		}},
	}
}

func readFramesGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(framesGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, h, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		out[name] = h
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFramesGolden pins the wire format: every frame kind encodes to exactly
// the bytes in testdata/frames.golden, and every golden frame reads back and
// re-encodes to the same bytes. A layout change must bump Version and
// regenerate the golden on purpose (go test -run TestFramesGolden -update).
func TestFramesGolden(t *testing.T) {
	payloads := goldenPayloads()
	if *updateFrames {
		var sb strings.Builder
		for _, p := range payloads {
			b, err := AppendFrame(nil, p.v)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			fmt.Fprintf(&sb, "%s %s\n", p.name, hex.EncodeToString(b))
		}
		if err := os.MkdirAll(filepath.Dir(framesGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(framesGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden := readFramesGolden(t)
	if len(golden) != len(payloads) {
		t.Fatalf("golden has %d frames, the payload list %d", len(golden), len(payloads))
	}
	for _, p := range payloads {
		want, err := hex.DecodeString(golden[p.name])
		if err != nil || len(want) == 0 {
			t.Fatalf("%s: no golden frame (%v)", p.name, err)
		}
		got, err := AppendFrame(nil, p.v)
		if err != nil {
			t.Fatalf("%s: encode: %v", p.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: encoding changed\ngot:  %x\nwant: %x", p.name, got, want)
		}
		v, n, err := ReadFrame(bytes.NewReader(want), 0)
		if err != nil || n != len(want) {
			t.Fatalf("%s: golden frame reads back as %d/%d bytes: %v", p.name, n, len(want), err)
		}
		again, err := AppendFrame(nil, v)
		if err != nil || !bytes.Equal(again, want) {
			t.Fatalf("%s: decoded frame re-encodes differently (%v)\ngot:  %x\nwant: %x", p.name, err, again, want)
		}
	}
}

// Decode's constructor table covers every type id through the last one, each
// entry's walk reports the id it is filed under, and the golden list holds a
// frame of every kind.
func TestFrameTableCoversEveryKind(t *testing.T) {
	if len(newFrame) != int(tTraceResult)+1 {
		t.Fatalf("constructor table has %d entries, type ids run to %d", len(newFrame), tTraceResult)
	}
	golden := map[byte]bool{}
	for _, p := range goldenPayloads() {
		b, err := Append(nil, p.v)
		if err != nil {
			t.Fatal(err)
		}
		golden[b[0]] = true
	}
	for id, mk := range newFrame {
		if mk == nil {
			t.Fatalf("type id %d has no constructor", id)
		}
		if got := mk().walk(new(codec)); got != byte(id) {
			t.Fatalf("constructor filed under type id %d walks as %d", id, got)
		}
		if !golden[byte(id)] {
			t.Fatalf("no golden frame of type id %d", id)
		}
	}
}

// largerPayloads is one instance of every frame kind, each larger than its
// golden counterparts — longer vectors and strings, more rows, more records,
// a tensor where a golden frame has none — so a recycled frame holds more
// than a golden frame decoded into it overwrites.
func largerPayloads() []any {
	ints := func(n, from int) []int {
		v := make([]int, n)
		for i := range v {
			v[i] = from + 3*i
		}
		return v
	}
	return []any{
		nil,
		ints(9, -4),
		[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9},
		&KVBlock{K: goldenTensor(7, 2, 4, 5), V: goldenTensor(7, 2, 4, 6), Pos: ints(7, 0), Seq: ints(7, 1)},
		&QBlock{Q: goldenTensor(5, 4, 4, 7), Pos: ints(5, 2), Seq: ints(5, 3)},
		&OBlock{Out: &attention.Output{O: goldenTensor(5, 2, 4, 8), LSE: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}},
		&Hello{Magic: 1, Version: 2, World: 9, Rank: 8, ConfigSum: 7, Epoch: 6},
		&Heartbeat{},
		&PrefillCmd{Seqs: ints(4, 1), Tokens: [][]int{ints(5, 0), ints(6, 1), ints(2, 2), ints(7, 3)}, P: ints(4, 9), Variant: 0, Reply: ReplyToken},
		&DecodeCmd{Seqs: ints(5, 1), Tokens: ints(5, 2), Pos: ints(5, 3), Owners: ints(5, 4), Reply: ReplyToken},
		&DropCmd{Seq: 99},
		&DetachCmd{Seq: 7, UpTo: 8, ID: 9},
		&AdoptCmd{Seq: 7, ID: 8},
		&ReleasePrefixCmd{ID: 3},
		&CapQueryCmd{Seqs: ints(6, 0)},
		&StatsCmd{},
		&ShutdownCmd{},
		&PrefillResult{Logits: goldenTensor(4, 1, 5, 9), IDs: []int32{1, 2, 3, 4, 5}, Err: "a longer error than any golden one"},
		&DecodeResult{Flat: []float32{9, 8, 7, 6, 5, 4, 3}, IDs: []int32{6, 5, 4, 3}, Err: "decode failed"},
		&Ack{Err: "a longer error than any golden one"},
		&DetachResult{PerLayer: ints(5, 16), Err: "detach failed"},
		&CapResult{Capacity: 7, Avail: ints(4, 1), Overhead: [][]int{ints(4, 0), ints(4, 1), ints(4, 2)}, Err: "capacity"},
		&StatsResult{
			CacheTokens: 1, Assembly: []int64{9, 8, 7, 6, 5, 4},
			Kinds: []string{"all2all", "allgather", "sendrecv"}, Msgs: []int64{1, 2, 3}, Bytes: []float64{1, 2, 3},
			Links:            []LinkStat{{Src: 1}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4, WireBytes: 9}},
			IntegrityChecked: 5, IntegrityRejected: 6,
			ChaosKinds: []string{"corrupt", "crash", "slow"}, ChaosCounts: []int64{1, 2, 3},
			Err: "stats failed",
		},
		&FailureNote{Rank: 0, Cause: "a much longer cause than the golden note carries"},
		&TraceCmd{},
		&TraceResult{
			Rank: 2,
			Spans: []TraceSpan{
				{Name: "span-one", Cat: "ring", ArgKeys: []string{"a", "b", "c"}, ArgVals: []int64{1, 2, 3}},
				{Name: "span-two", Cat: "server", ArgKeys: []string{"d"}, ArgVals: []int64{4}},
				{Name: "span-three", Cat: "kv"},
			},
			Series: []TraceSeries{
				{Name: "series-one", LabelKeys: []string{"k1", "k2"}, LabelVals: []string{"v1", "v2"}, Counts: []int64{1, 2, 3, 4}},
				{Name: "series-two", Counts: []int64{5}},
				{Name: "series-three"},
			},
			Err: "trace failed",
		},
	}
}

// A decoded frame keeps no byte of the frame it came from, and a frame
// decoded into a recycled one of its kind equals a fresh decode. For every
// golden frame: decode it fresh; decode it into a frame of its kind that a
// larger frame filled first, and read it through a reader whose spares hold
// such a frame; scribble over the bytes both decoded from; and re-encode all
// three, which must give the golden bytes back.
func TestRecycledDecodeEqualsFresh(t *testing.T) {
	golden := readFramesGolden(t)
	larger := map[byte][]byte{}
	for _, v := range largerPayloads() {
		b, err := Append(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		if larger[b[0]] != nil {
			t.Fatalf("two larger payloads of type id %d", b[0])
		}
		larger[b[0]] = b
	}
	for _, p := range goldenPayloads() {
		want, err := hex.DecodeString(golden[p.name])
		if err != nil {
			t.Fatal(err)
		}
		id := want[4]
		if larger[id] == nil {
			t.Fatalf("%s: no larger payload of type id %d", p.name, id)
		}
		filled := func() frame {
			f, err := decodeInto(larger[id], nil)
			if err != nil {
				t.Fatalf("%s: larger payload: %v", p.name, err)
			}
			return f
		}
		fresh, err := Decode(want[4 : len(want)-4])
		if err != nil {
			t.Fatalf("%s: fresh decode: %v", p.name, err)
		}
		body := append([]byte(nil), want[4:len(want)-4]...)
		recycled := filled()
		got, err := decodeInto(body, recycled)
		if err != nil || got != recycled {
			t.Fatalf("%s: decode into a recycled %T gave %T (%v)", p.name, recycled, got, err)
		}
		rd := Reader{Spares: NewSpares(1)}
		spare := payload(filled())
		rd.Spares.Put(spare)
		read, n, err := rd.ReadFrame(bytes.NewReader(want), 0)
		if err != nil || n != len(want) {
			t.Fatalf("%s: read %d/%d bytes through spares: %v", p.name, n, len(want), err)
		}
		if Recyclable(spare) && read != spare {
			t.Fatalf("%s: the reader decoded into a new %T, not its spare", p.name, read)
		}
		for _, b := range [][]byte{body, rd.body} {
			for i := range b {
				b[i] = 0xa5
			}
		}
		for what, v := range map[string]any{"fresh": fresh, "recycled": payload(got), "read": read} {
			again, err := AppendFrame(nil, v)
			if err != nil || !bytes.Equal(again, want) {
				t.Fatalf("%s: %s decode re-encodes differently (%v)\ngot:  %x\nwant: %x", p.name, what, err, again, want)
			}
		}
	}
}

// BenchmarkFrame is the codec's cost on the two frames a TCP ring moves
// most: a ring_tcp-shaped pass-KV hop (512 rows, one KV head of 32) and an
// eight-entry decode command. One op encodes through a Writer and reads the
// frame back (CRC check and decode) through a Reader, as a TCP link does;
// the hop's block is then handed back to the reader's spares, as a ring pass
// does, and the next op decodes into it.
func BenchmarkFrame(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const rows = 512
	pos, seq := make([]int, rows), make([]int, rows)
	for i := range pos {
		pos[i] = i
	}
	const batch = 8
	cmd := &DecodeCmd{Seqs: make([]int, batch), Tokens: make([]int, batch), Pos: make([]int, batch), Owners: make([]int, batch)}
	for i := 0; i < batch; i++ {
		cmd.Seqs[i], cmd.Tokens[i], cmd.Pos[i], cmd.Owners[i] = i, 3*i+1, 1024+i, i%2
	}
	for _, bc := range []namedPayload{
		{"kv-hop", &KVBlock{K: randTensor(rng, rows, 1, 32), V: randTensor(rng, rows, 1, 32), Pos: pos, Seq: seq}},
		{"decode-cmd", cmd},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var frame []byte
			var r bytes.Reader
			var w Writer
			rd := Reader{Spares: NewSpares(1)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if frame, err = w.Frame(bc.v); err != nil {
					b.Fatal(err)
				}
				r.Reset(frame)
				v, _, err := rd.ReadFrame(&r, 0)
				if err != nil {
					b.Fatal(err)
				}
				rd.Spares.Put(v)
			}
			b.SetBytes(int64(len(frame)))
		})
	}
}
