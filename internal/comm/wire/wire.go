// Package wire defines the deterministic binary codec of the distributed CP
// transport: every payload the ring exchanges (KV tiles, circulating query
// blocks, pass-Q partial outputs, metadata gathers) plus the coordinator's
// control frames (commands, results, rendezvous handshake, heartbeats) has a
// fixed little-endian encoding here.
//
// The codec is the load-bearing piece of the bit-identity guarantee: float32
// and float64 values travel as their exact IEEE-754 bit patterns
// (math.Float32bits / math.Float64bits), so NaN payloads, signed zeros, and
// denormals survive a round trip unchanged and a multi-process ring computes
// float-for-float the same merges as the in-process mailboxes, which pass
// pointers and never serialize at all.
//
// Frames are length-prefixed: a uint32 frame length, one type-id byte, the
// payload, then a CRC32C (Castagnoli) trailer over the type-id byte and
// payload. Decoding validates every count against the remaining bytes
// before allocating, so truncated or corrupt frames fail with an error
// instead of a panic or an absurd allocation (the package fuzz test leans on
// this). The checksum catches what length validation cannot: a bit flip
// inside the payload of an otherwise well-framed message, which would
// otherwise decode into silently wrong floats. A checksum mismatch surfaces
// as ErrIntegrity — a named error the transport treats as a link failure —
// never as decoded garbage.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/attention"
	"repro/internal/tensor"
)

// Magic identifies a CP transport peer; the first frame on every connection
// is a Hello carrying it.
const Magic = 0x43505257 // "CPRW"

// Version is the wire-protocol version. Peers with mismatched versions are
// rejected at rendezvous, never mid-ring. Version 2 added the Hello epoch
// (cluster-incarnation number for fault recovery) and the FailureNote frame.
// Version 3 added the trace drain round trip (TraceCmd / TraceResult).
// Version 4 added the per-frame CRC32C trailer and the StatsResult
// integrity/chaos counters.
const Version = 4

// DefaultMaxFrame bounds a single frame's encoded size (length prefix
// included). Loopback KV tiles at laptop scale are kilobytes; anything near
// this limit is a corrupt length prefix.
const DefaultMaxFrame = 1 << 28

// Payload type ids. The id is part of the wire format: renumbering is a
// protocol version bump.
const (
	tNil byte = iota
	tIntVec
	tFloatVec
	tKVBlock
	tQBlock
	tOBlock
	tHello
	tHeartbeat
	tPrefillCmd
	tDecodeCmd
	tDropCmd
	tDetachCmd
	tAdoptCmd
	tReleasePrefixCmd
	tCapQueryCmd
	tStatsCmd
	tShutdownCmd
	tPrefillResult
	tDecodeResult
	tAck
	tDetachResult
	tCapResult
	tStatsResult
	tFailureNote
	tTraceCmd
	tTraceResult
)

// KVBlock is the circulating payload of ring pass-KV: key/value rows plus
// their global positions and sequence ids (padding rows carry pos -1).
type KVBlock struct {
	K, V *tensor.Tensor
	Pos  []int
	Seq  []int
}

// QBlock is the circulating payload of ring pass-Q (prefill and decode):
// query rows plus mask metadata.
type QBlock struct {
	Q   *tensor.Tensor
	Pos []int
	Seq []int
}

// OBlock is a partial attention output transported by the pass-Q All2All:
// output embeddings plus per-(token, head) log-sum-exp.
type OBlock struct {
	Out *attention.Output
}

// Hello is the rendezvous handshake frame: the first frame on every data and
// control connection, in both directions. Rank -1 identifies the coordinator
// (control plane); worker ranks are [0, World).
//
// Epoch is the cluster incarnation: it starts at 1 and increments on every
// fault-recovery rebuild, so a frame from a stale incarnation (a wedged old
// worker, a delayed old coordinator) is rejected at handshake instead of
// silently joining a cluster whose state it no longer shares. Peers on a
// lower epoch learn the current one from the rejection and rejoin at it.
type Hello struct {
	Magic     uint32
	Version   uint16
	World     int
	Rank      int
	ConfigSum uint64 // model config + seed digest; catches mismatched workers
	Epoch     uint64 // cluster incarnation; mismatched epochs never mesh
}

// Heartbeat keeps an idle link observable; receivers drop it before the
// inbox, so it is invisible to the ring algorithms.
type Heartbeat struct{}

// PrefillCmd instructs every rank to run one fused varseq prefill. All
// derived quantities (previously-cached lengths P, the resolved ring
// variant) are included so workers execute a pure function of the frame.
type PrefillCmd struct {
	Seqs    []int
	Tokens  [][]int
	P       []int
	Variant int // resolved model.Variant; never Auto on the wire
}

// DecodeCmd instructs every rank to run one fused batched decode step.
// Owners[i] is the rank that owns batch entry i's token this step; Pos[i]
// its global position — both resolved by the coordinator so placement stays
// a pure function of the command stream.
type DecodeCmd struct {
	Seqs   []int
	Tokens []int
	Pos    []int
	Owners []int
}

// DropCmd evicts one sequence's KV on every rank.
type DropCmd struct{ Seq int }

// DetachCmd pins the first UpTo tokens of a resident sequence into the
// worker's prefix registry under ID.
type DetachCmd struct {
	Seq  int
	UpTo int
	ID   uint64
}

// AdoptCmd seeds a new sequence from a previously detached prefix.
type AdoptCmd struct {
	Seq int
	ID  uint64
}

// ReleasePrefixCmd frees a detached prefix's page references.
type ReleasePrefixCmd struct{ ID uint64 }

// CapQueryCmd asks a rank for the KV-capacity inputs of the listed
// sequences, so the coordinator can run the same global admission greedy the
// in-process cluster runs.
type CapQueryCmd struct{ Seqs []int }

// FailureNote is an unsolicited worker->coordinator frame: the worker
// observed a data-plane fault (a peer link died) while idle between
// commands. The coordinator's control-plane reader filters it out of the
// command/result stream — like a heartbeat, it never aliases a reply — and
// surfaces it as a FailureEvent so recovery can start before the next
// command trips over the dead rank.
type FailureNote struct {
	Rank  int    // reporting worker's rank
	Cause string // human-readable fault description (names the dead peer)
}

// StatsCmd asks a rank for its telemetry snapshot.
type StatsCmd struct{}

// TraceCmd drains a rank's trace recorder: the worker ships every span and
// series delta accumulated since the previous drain, then resets its staging
// buffers. The coordinator folds the result into its cumulative store, so
// Prometheus counters stay monotonic across drains and epochs.
type TraceCmd struct{}

// TraceSpan is one recorded span on the wire. Args travel as parallel
// key/value arrays with keys pre-sorted by the sender, keeping the encoding
// canonical (one byte sequence per span).
type TraceSpan struct {
	Name    string
	Cat     string
	Rank    int
	Seq     int
	Epoch   uint64
	Index   uint64
	Start   int64
	Dur     int64
	ArgKeys []string
	ArgVals []int64
}

// TraceSeries is one metric series' drained delta: counter/gauge value, or
// histogram count/sum/per-bucket counts. Labels travel as parallel key/value
// arrays sorted by key.
type TraceSeries struct {
	Name      string
	LabelKeys []string
	LabelVals []string
	Kind      uint8
	Value     float64
	Count     uint64
	Sum       float64
	Counts    []int64
}

// TraceResult answers a TraceCmd with the rank's drained spans and series
// deltas.
type TraceResult struct {
	Rank   int
	Spans  []TraceSpan
	Series []TraceSeries
	Err    string
}

// ShutdownCmd ends a worker's serve loop.
type ShutdownCmd struct{}

// PrefillResult carries one rank's local logits shard back to the
// coordinator.
type PrefillResult struct {
	Logits *tensor.Tensor
	Err    string
}

// DecodeResult carries the flat logits of a rank's owned decode rows.
type DecodeResult struct {
	Flat []float32
	Err  string
}

// Ack acknowledges a command with no payload.
type Ack struct{ Err string }

// DetachResult reports the per-layer token counts a detach pinned on one
// rank, so the coordinator can validate the cross-rank boundary invariant.
type DetachResult struct {
	PerLayer []int
	Err      string
}

// CapResult answers a CapQueryCmd: per-layer free rows and, per queried
// sequence, the per-layer copy-on-write append overhead.
type CapResult struct {
	Capacity int
	Avail    []int   // [layer]
	Overhead [][]int // [seqIdx][layer]
	Err      string
}

// LinkStat is one directed link's traffic: the modeled bytes the comm layer
// accounts (the paper's analytic element sizes) and the actual frames/bytes
// the TCP transport moved. Src -1 marks coordinator control links.
type LinkStat struct {
	Src       int     `json:"src"`
	Dst       int     `json:"dst"`
	Messages  int64   `json:"messages"`
	Bytes     float64 `json:"bytes"`
	WireMsgs  int64   `json:"wire_messages"`
	WireBytes int64   `json:"wire_bytes"`
}

// StatsResult is one rank's telemetry snapshot.
type StatsResult struct {
	CacheTokens int
	Assembly    []int64 // ring.BlockCacheStats counters, field order
	Kinds       []string
	Msgs        []int64
	Bytes       []float64
	Links       []LinkStat
	// Frame-integrity counters of this rank's process (IntegrityStats).
	IntegrityChecked  int64
	IntegrityRejected int64
	// Chaos faults this rank's process injected, by kind (chaos.Totals).
	ChaosKinds  []string
	ChaosCounts []int64
	Err         string
}

type enc struct{ b []byte }

func (e *enc) u8(v byte)     { e.b = append(e.b, v) }
func (e *enc) u16(v uint16)  { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int)     { e.u64(uint64(int64(v))) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *enc) ints(v []int) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.i64(x)
	}
}

func (e *enc) intss(v [][]int) {
	e.u32(uint32(len(v)))
	for _, inner := range v {
		e.ints(inner)
	}
}

func (e *enc) f32s(v []float32) {
	e.u32(uint32(len(v)))
	e.f32row(v)
}

func (e *enc) f64s(v []float64) {
	e.u32(uint32(len(v)))
	e.f64row(v)
}

// grow extends e.b by n bytes, reallocating at most once, and returns them.
func (e *enc) grow(n int) []byte {
	off := len(e.b)
	e.b = slices.Grow(e.b, n)[:off+n]
	return e.b[off:]
}

// f32row appends v's bit patterns, little-endian, without a length prefix.
func (e *enc) f32row(v []float32) {
	dst := e.grow(4 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(x))
	}
}

// f64row is f32row for float64s.
func (e *enc) f64row(v []float64) {
	dst := e.grow(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

func (e *enc) i64s(v []int64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u64(uint64(x))
	}
}

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) strs(v []string) {
	e.u32(uint32(len(v)))
	for _, s := range v {
		e.str(s)
	}
}

func (e *enc) tensor(t *tensor.Tensor) {
	if t == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.u32(uint32(t.Tokens))
	e.u32(uint32(t.Heads))
	e.u32(uint32(t.Dim))
	e.f32row(t.Data)
}

func (e *enc) output(o *attention.Output) {
	if o == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.tensor(o.O)
	e.f64s(o.LSE)
}

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.b)-d.off < n {
		d.fail("truncated frame: need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return false
	}
	return true
}

func (d *dec) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) i64() int     { return int(int64(d.u64())) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a element count and validates it against the bytes remaining
// (elemSize >= 1), so a corrupt count cannot trigger a huge allocation.
func (d *dec) count(elemSize int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || n*elemSize > len(d.b)-d.off {
		d.fail("count %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return 0
	}
	return n
}

func (d *dec) ints() []int {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.i64()
	}
	return out
}

func (d *dec) intss() [][]int {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([][]int, n)
	for i := range out {
		out[i] = d.ints()
		if d.err != nil {
			return nil
		}
	}
	return out
}

func (d *dec) f32s() []float32 {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	return d.f32row(n)
}

func (d *dec) f64s() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	return d.f64row(n)
}

// f32row decodes n little-endian float32s, checking the bounds once for the
// whole row.
func (d *dec) f32row(n int) []float32 {
	if !d.need(4 * n) {
		return nil
	}
	src := d.b[d.off : d.off+4*n]
	d.off += 4 * n
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return out
}

// f64row is f32row for float64s.
func (d *dec) f64row(n int) []float64 {
	if !d.need(8 * n) {
		return nil
	}
	src := d.b[d.off : d.off+8*n]
	d.off += 8 * n
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return out
}

func (d *dec) i64s() []int64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(d.u64())
	}
	return out
}

func (d *dec) str() string {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) strs() []string {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
		if d.err != nil {
			return nil
		}
	}
	return out
}

// present reads a strict 0/1 presence byte; any other value is a framing
// error (keeps the encoding canonical: one byte sequence per value).
func (d *dec) present() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid presence byte at offset %d", d.off-1)
		return false
	}
}

func (d *dec) tensor() *tensor.Tensor {
	if !d.present() || d.err != nil {
		return nil
	}
	tokens, heads, dim := int(d.u32()), int(d.u32()), int(d.u32())
	if d.err != nil {
		return nil
	}
	// Bound the element count stepwise so a corrupt shape cannot overflow
	// the multiplication into a bypassed allocation check.
	const maxElems = 1 << 30
	n64 := int64(tokens)
	for _, f := range []int{heads, dim} {
		if n64 > maxElems || int64(f) > maxElems {
			n64 = maxElems + 1
			break
		}
		n64 *= int64(f)
	}
	if n64 > maxElems || int(n64)*4 > len(d.b)-d.off {
		d.fail("tensor shape [%d %d %d] exceeds remaining %d bytes", tokens, heads, dim, len(d.b)-d.off)
		return nil
	}
	t, err := tensor.FromData(tokens, heads, dim, d.f32row(int(n64)))
	if err != nil {
		d.fail("tensor: %v", err)
		return nil
	}
	return t
}

func (d *dec) output() *attention.Output {
	if !d.present() || d.err != nil {
		return nil
	}
	o := d.tensor()
	lse := d.f64s()
	if d.err != nil {
		return nil
	}
	if o == nil {
		d.fail("output frame without tensor")
		return nil
	}
	if len(lse) != o.Tokens*o.Heads {
		d.fail("output LSE length %d for shape [%d %d]", len(lse), o.Tokens, o.Heads)
		return nil
	}
	return &attention.Output{O: o, LSE: lse}
}

// Append encodes v (type id byte plus payload, no length prefix) onto buf
// and returns the extended slice. The supported payload set is closed; any
// other type is an error, never a silent fallback encoding.
func Append(buf []byte, v any) ([]byte, error) {
	e := &enc{b: buf}
	switch x := v.(type) {
	case nil:
		e.u8(tNil)
	case []int:
		e.u8(tIntVec)
		e.ints(x)
	case []float64:
		e.u8(tFloatVec)
		e.f64s(x)
	case *KVBlock:
		e.u8(tKVBlock)
		e.tensor(x.K)
		e.tensor(x.V)
		e.ints(x.Pos)
		e.ints(x.Seq)
	case *QBlock:
		e.u8(tQBlock)
		e.tensor(x.Q)
		e.ints(x.Pos)
		e.ints(x.Seq)
	case *OBlock:
		e.u8(tOBlock)
		e.output(x.Out)
	case *Hello:
		e.u8(tHello)
		e.u32(x.Magic)
		e.u16(x.Version)
		e.i64(x.World)
		e.i64(x.Rank)
		e.u64(x.ConfigSum)
		e.u64(x.Epoch)
	case *Heartbeat:
		e.u8(tHeartbeat)
	case *PrefillCmd:
		e.u8(tPrefillCmd)
		e.ints(x.Seqs)
		e.intss(x.Tokens)
		e.ints(x.P)
		e.i64(x.Variant)
	case *DecodeCmd:
		e.u8(tDecodeCmd)
		e.ints(x.Seqs)
		e.ints(x.Tokens)
		e.ints(x.Pos)
		e.ints(x.Owners)
	case *DropCmd:
		e.u8(tDropCmd)
		e.i64(x.Seq)
	case *DetachCmd:
		e.u8(tDetachCmd)
		e.i64(x.Seq)
		e.i64(x.UpTo)
		e.u64(x.ID)
	case *AdoptCmd:
		e.u8(tAdoptCmd)
		e.i64(x.Seq)
		e.u64(x.ID)
	case *ReleasePrefixCmd:
		e.u8(tReleasePrefixCmd)
		e.u64(x.ID)
	case *CapQueryCmd:
		e.u8(tCapQueryCmd)
		e.ints(x.Seqs)
	case *StatsCmd:
		e.u8(tStatsCmd)
	case *TraceCmd:
		e.u8(tTraceCmd)
	case *ShutdownCmd:
		e.u8(tShutdownCmd)
	case *FailureNote:
		e.u8(tFailureNote)
		e.i64(x.Rank)
		e.str(x.Cause)
	case *PrefillResult:
		e.u8(tPrefillResult)
		e.tensor(x.Logits)
		e.str(x.Err)
	case *DecodeResult:
		e.u8(tDecodeResult)
		e.f32s(x.Flat)
		e.str(x.Err)
	case *Ack:
		e.u8(tAck)
		e.str(x.Err)
	case *DetachResult:
		e.u8(tDetachResult)
		e.ints(x.PerLayer)
		e.str(x.Err)
	case *CapResult:
		e.u8(tCapResult)
		e.i64(x.Capacity)
		e.ints(x.Avail)
		e.intss(x.Overhead)
		e.str(x.Err)
	case *StatsResult:
		e.u8(tStatsResult)
		e.i64(x.CacheTokens)
		e.i64s(x.Assembly)
		e.strs(x.Kinds)
		e.i64s(x.Msgs)
		e.f64s(x.Bytes)
		e.u32(uint32(len(x.Links)))
		for _, l := range x.Links {
			e.i64(l.Src)
			e.i64(l.Dst)
			e.u64(uint64(l.Messages))
			e.f64(l.Bytes)
			e.u64(uint64(l.WireMsgs))
			e.u64(uint64(l.WireBytes))
		}
		e.u64(uint64(x.IntegrityChecked))
		e.u64(uint64(x.IntegrityRejected))
		e.strs(x.ChaosKinds)
		e.i64s(x.ChaosCounts)
		e.str(x.Err)
	case *TraceResult:
		e.u8(tTraceResult)
		e.i64(x.Rank)
		e.u32(uint32(len(x.Spans)))
		for _, s := range x.Spans {
			e.str(s.Name)
			e.str(s.Cat)
			e.i64(s.Rank)
			e.i64(s.Seq)
			e.u64(s.Epoch)
			e.u64(s.Index)
			e.u64(uint64(s.Start))
			e.u64(uint64(s.Dur))
			e.strs(s.ArgKeys)
			e.i64s(s.ArgVals)
		}
		e.u32(uint32(len(x.Series)))
		for _, s := range x.Series {
			e.str(s.Name)
			e.strs(s.LabelKeys)
			e.strs(s.LabelVals)
			e.u8(s.Kind)
			e.f64(s.Value)
			e.u64(s.Count)
			e.f64(s.Sum)
			e.i64s(s.Counts)
		}
		e.str(x.Err)
	default:
		return buf, fmt.Errorf("wire: unsupported payload type %T", v)
	}
	return e.b, nil
}

// Decode parses one encoded payload (type id byte plus body, no length
// prefix). Trailing bytes are a framing error.
func Decode(b []byte) (any, error) {
	d := &dec{b: b}
	if !d.need(1) {
		return nil, d.err
	}
	typ := d.u8()
	var v any
	switch typ {
	case tNil:
		v = nil
	case tIntVec:
		v = d.ints()
	case tFloatVec:
		v = d.f64s()
	case tKVBlock:
		v = &KVBlock{K: d.tensor(), V: d.tensor(), Pos: d.ints(), Seq: d.ints()}
	case tQBlock:
		v = &QBlock{Q: d.tensor(), Pos: d.ints(), Seq: d.ints()}
	case tOBlock:
		v = &OBlock{Out: d.output()}
	case tHello:
		v = &Hello{Magic: d.u32(), Version: d.u16(), World: d.i64(), Rank: d.i64(), ConfigSum: d.u64(), Epoch: d.u64()}
	case tHeartbeat:
		v = &Heartbeat{}
	case tPrefillCmd:
		v = &PrefillCmd{Seqs: d.ints(), Tokens: d.intss(), P: d.ints(), Variant: d.i64()}
	case tDecodeCmd:
		v = &DecodeCmd{Seqs: d.ints(), Tokens: d.ints(), Pos: d.ints(), Owners: d.ints()}
	case tDropCmd:
		v = &DropCmd{Seq: d.i64()}
	case tDetachCmd:
		v = &DetachCmd{Seq: d.i64(), UpTo: d.i64(), ID: d.u64()}
	case tAdoptCmd:
		v = &AdoptCmd{Seq: d.i64(), ID: d.u64()}
	case tReleasePrefixCmd:
		v = &ReleasePrefixCmd{ID: d.u64()}
	case tCapQueryCmd:
		v = &CapQueryCmd{Seqs: d.ints()}
	case tStatsCmd:
		v = &StatsCmd{}
	case tTraceCmd:
		v = &TraceCmd{}
	case tShutdownCmd:
		v = &ShutdownCmd{}
	case tFailureNote:
		v = &FailureNote{Rank: d.i64(), Cause: d.str()}
	case tPrefillResult:
		v = &PrefillResult{Logits: d.tensor(), Err: d.str()}
	case tDecodeResult:
		v = &DecodeResult{Flat: d.f32s(), Err: d.str()}
	case tAck:
		v = &Ack{Err: d.str()}
	case tDetachResult:
		v = &DetachResult{PerLayer: d.ints(), Err: d.str()}
	case tCapResult:
		v = &CapResult{Capacity: d.i64(), Avail: d.ints(), Overhead: d.intss(), Err: d.str()}
	case tStatsResult:
		r := &StatsResult{
			CacheTokens: d.i64(),
			Assembly:    d.i64s(),
			Kinds:       d.strs(),
			Msgs:        d.i64s(),
			Bytes:       d.f64s(),
		}
		n := d.count(8 * 6)
		if d.err == nil && n > 0 {
			r.Links = make([]LinkStat, n)
			for i := range r.Links {
				r.Links[i] = LinkStat{
					Src: d.i64(), Dst: d.i64(),
					Messages: int64(d.u64()), Bytes: d.f64(),
					WireMsgs: int64(d.u64()), WireBytes: int64(d.u64()),
				}
			}
		}
		r.IntegrityChecked = int64(d.u64())
		r.IntegrityRejected = int64(d.u64())
		r.ChaosKinds = d.strs()
		r.ChaosCounts = d.i64s()
		r.Err = d.str()
		v = r
	case tTraceResult:
		r := &TraceResult{Rank: d.i64()}
		// Minimum encoded span: two string headers, six fixed u64s, two
		// vector headers = 64 bytes; series likewise bottoms out at 41.
		n := d.count(64)
		if d.err == nil && n > 0 {
			r.Spans = make([]TraceSpan, n)
			for i := range r.Spans {
				r.Spans[i] = TraceSpan{
					Name: d.str(), Cat: d.str(),
					Rank: d.i64(), Seq: d.i64(),
					Epoch: d.u64(), Index: d.u64(),
					Start: int64(d.u64()), Dur: int64(d.u64()),
					ArgKeys: d.strs(), ArgVals: d.i64s(),
				}
				if d.err != nil {
					return nil, d.err
				}
			}
		}
		n = d.count(41)
		if d.err == nil && n > 0 {
			r.Series = make([]TraceSeries, n)
			for i := range r.Series {
				r.Series[i] = TraceSeries{
					Name:      d.str(),
					LabelKeys: d.strs(), LabelVals: d.strs(),
					Kind:  d.u8(),
					Value: d.f64(), Count: d.u64(), Sum: d.f64(),
					Counts: d.i64s(),
				}
				if d.err != nil {
					return nil, d.err
				}
			}
		}
		r.Err = d.str()
		v = r
	default:
		return nil, fmt.Errorf("wire: unknown payload type id %d", typ)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("wire: %d trailing bytes after type %d payload", len(d.b)-d.off, typ)
	}
	return v, nil
}

// castagnoli is the CRC32C polynomial table shared by every frame checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Process-wide frame-integrity counters: frames whose CRC32C trailer was
// verified, and the subset that failed verification. They feed the serving
// layer's integrity stats block; workers ship theirs in StatsResult.
var (
	integrityChecked  atomic.Int64
	integrityRejected atomic.Int64
)

// IntegrityStats reports this process's cumulative frame-integrity
// counters: frames whose CRC32C trailer was verified (rejections included)
// and frames rejected for a checksum mismatch.
func IntegrityStats() (checked, rejected int64) {
	return integrityChecked.Load(), integrityRejected.Load()
}

// AppendFrame appends one complete encoded frame of v to buf: the uint32
// length prefix, the payload, and its CRC32C trailer. It is WriteFrame
// without the write — transports that need the raw frame bytes (to tap,
// batch, or mangle them in tests) build frames here and write them
// themselves.
func AppendFrame(buf []byte, v any) ([]byte, error) {
	start := len(buf)
	body, err := Append(append(buf, 0, 0, 0, 0), v)
	if err != nil {
		return buf, err
	}
	body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body[start+4:], castagnoli))
	n := len(body) - start - 4 // payload + trailer, the on-wire frame length
	if n > DefaultMaxFrame {
		return buf, fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte limit", n, DefaultMaxFrame)
	}
	binary.LittleEndian.PutUint32(body[start:start+4], uint32(n))
	return body, nil
}

// WriteFrame encodes v as one length-prefixed, CRC32C-trailed frame onto w
// and returns the total bytes written (prefix included). Frames over
// DefaultMaxFrame are rejected with a named error before anything hits the
// stream: a peer reading with the default cap would otherwise kill the link
// with a misleading length error after the send already "succeeded" (and a
// frame past 4 GiB would silently wrap the length prefix).
func WriteFrame(w io.Writer, v any) (int, error) {
	body, err := AppendFrame(make([]byte, 0, 256), v)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(body)
	if err != nil {
		return n, err
	}
	return len(body), nil
}

// ErrBadFrame marks a frame that arrived intact but did not decode — the
// signature of a peer speaking a different wire-protocol version (layouts
// change between versions, so a foreign Hello fails strict decode before
// the in-band version field can even be compared). Handshake paths match
// it to reject mixed-version peers with a named cause instead of retrying
// into a rendezvous timeout.
var ErrBadFrame = errors.New("wire: undecodable frame")

// ErrIntegrity marks a frame whose CRC32C trailer did not match its
// contents: the bytes were damaged in flight (or deliberately, by the chaos
// layer). It is deliberately distinct from ErrBadFrame — an integrity
// failure is link damage, not a protocol mismatch, so handshake paths retry
// it instead of rejecting the peer, and the transport treats it as a link
// failure that routes into epoch recovery instead of decoding garbage.
var ErrIntegrity = errors.New("wire: frame integrity check failed")

// ReadFrame reads one length-prefixed frame from r (maxFrame <= 0 uses
// DefaultMaxFrame), verifies its CRC32C trailer, and returns the decoded
// payload plus total bytes read. A checksum mismatch wraps ErrIntegrity;
// decode failures of an intact frame wrap ErrBadFrame.
func ReadFrame(r io.Reader, maxFrame int) (any, int, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	// Minimum frame: one type-id byte plus the 4-byte CRC trailer.
	if n < 5 || n > maxFrame {
		return nil, 4, fmt.Errorf("%w: frame length %d outside [5,%d]", ErrBadFrame, n, maxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 4, fmt.Errorf("wire: short frame body: %w", err)
	}
	integrityChecked.Add(1)
	want := binary.LittleEndian.Uint32(body[n-4:])
	if got := crc32.Checksum(body[:n-4], castagnoli); got != want {
		integrityRejected.Add(1)
		return nil, 4 + n, fmt.Errorf("%w: crc32c %08x, frame claims %08x over %d bytes", ErrIntegrity, got, want, n-4)
	}
	v, err := Decode(body[:n-4])
	if err != nil {
		return nil, 4 + n, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return v, 4 + n, nil
}

// ErrOf extracts the Err field of a result frame, or "" when the frame type
// carries none.
func ErrOf(v any) string {
	switch x := v.(type) {
	case *PrefillResult:
		return x.Err
	case *DecodeResult:
		return x.Err
	case *Ack:
		return x.Err
	case *DetachResult:
		return x.Err
	case *CapResult:
		return x.Err
	case *StatsResult:
		return x.Err
	case *TraceResult:
		return x.Err
	}
	return ""
}
