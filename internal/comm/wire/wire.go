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
//
// A Writer and a Reader keep their frame buffer from one frame to the next,
// and a Reader with Spares decodes KV, query and output frames into blocks
// handed back to it; ReadFrame and WriteFrame are the one-shot form of the
// same code.
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
	"repro/internal/parallel"
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
// integrity/chaos counters. Version 5 added PrefillCmd.All: a prefill
// returns only its sampled rows unless the command asks for every row.
// Version 6 replaced All with a Reply mode on both PrefillCmd and DecodeCmd,
// and results carry the sampled rows' token ids when the mode asks for them.
const Version = 6

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

// Reply is what a prefill or decode command asks its result to carry. It
// travels as one byte; a mode the command does not take fails both encode
// and decode.
type Reply uint8

const (
	// ReplyLast returns the logits of the sampled rows: each sequence's last
	// new position. The zero value, and what the exact-equality oracles
	// compare decode steps with.
	ReplyLast Reply = iota
	// ReplyToken returns the sampled rows' token ids instead: the rank
	// holding a row runs the greedy sampler on it, so no logits row crosses
	// to the coordinator. Serving runs on this mode.
	ReplyToken
	// ReplyAll returns every new position's logits (prefill only:
	// Cluster.PrefillBatch, the exact-equality oracle).
	ReplyAll
)

// PrefillCmd instructs every rank to run one fused varseq prefill. All
// derived quantities (previously-cached lengths P, the resolved ring
// variant) are included so workers execute a pure function of the frame.
//
// Reply selects which rows come back, and how. Under ReplyAll every new
// position's logits. Under ReplyLast and ReplyToken only each sequence's
// last position — the sampled row — whose last layer is then the only one
// that runs attention, the FFN and the output head; every layer's K/V, and
// every earlier layer, is computed in full either way.
type PrefillCmd struct {
	Seqs    []int
	Tokens  [][]int
	P       []int
	Variant int // resolved model.Variant; never Auto on the wire
	Reply   Reply
}

// DecodeCmd instructs every rank to run one fused batched decode step.
// Owners[i] is the rank that owns batch entry i's token this step; Pos[i]
// its global position — both resolved by the coordinator so placement stays
// a pure function of the command stream. Reply is ReplyLast (every owned
// row's logits) or ReplyToken (their token ids); a decode step samples
// every row, so ReplyAll is not a decode mode.
type DecodeCmd struct {
	Seqs   []int
	Tokens []int
	Pos    []int
	Owners []int
	Reply  Reply
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

// PrefillResult carries one rank's rows back to the coordinator. Under
// ReplyAll and ReplyLast, Logits is a [rows, 1, vocab] tensor in local slot
// order: all LocalLen slots, padding included, under ReplyAll, else the
// sampled rows the rank holds — possibly none, which is an empty tensor,
// not a nil one. Under ReplyToken, IDs holds one token id per sampled row
// the rank holds, in the same order, and Logits is nil. The coordinator
// checks the row count against the plan before it reads a row.
type PrefillResult struct {
	Logits *tensor.Tensor
	IDs    []int32
	Err    string
}

// DecodeResult carries a rank's owned decode rows: their flat logits under
// ReplyLast, their token ids under ReplyToken.
type DecodeResult struct {
	Flat []float32
	IDs  []int32
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

// A frame is a payload with a fixed layout. walk visits its fields in wire
// order through c, writing them when c encodes and filling them when it
// decodes, and returns the frame's type id. The walk is the only statement
// of a frame's layout, so its encoder and decoder cannot disagree.
type frame interface {
	walk(c *codec) byte
}

func (b *KVBlock) walk(c *codec) byte {
	c.tensor(&b.K)
	c.tensor(&b.V)
	ints(c, &b.Pos)
	ints(c, &b.Seq)
	return tKVBlock
}

func (b *QBlock) walk(c *codec) byte {
	c.tensor(&b.Q)
	ints(c, &b.Pos)
	ints(c, &b.Seq)
	return tQBlock
}

func (b *OBlock) walk(c *codec) byte {
	c.output(&b.Out)
	return tOBlock
}

func (h *Hello) walk(c *codec) byte {
	num(c, &h.Magic, 4)
	num(c, &h.Version, 2)
	num(c, &h.World, 8)
	num(c, &h.Rank, 8)
	num(c, &h.ConfigSum, 8)
	num(c, &h.Epoch, 8)
	return tHello
}

func (*Heartbeat) walk(*codec) byte { return tHeartbeat }

func (m *PrefillCmd) walk(c *codec) byte {
	ints(c, &m.Seqs)
	c.intss(&m.Tokens)
	ints(c, &m.P)
	num(c, &m.Variant, 8)
	c.reply(&m.Reply, ReplyAll)
	return tPrefillCmd
}

func (m *DecodeCmd) walk(c *codec) byte {
	ints(c, &m.Seqs)
	ints(c, &m.Tokens)
	ints(c, &m.Pos)
	ints(c, &m.Owners)
	c.reply(&m.Reply, ReplyToken)
	return tDecodeCmd
}

func (m *DropCmd) walk(c *codec) byte {
	num(c, &m.Seq, 8)
	return tDropCmd
}

func (m *DetachCmd) walk(c *codec) byte {
	num(c, &m.Seq, 8)
	num(c, &m.UpTo, 8)
	num(c, &m.ID, 8)
	return tDetachCmd
}

func (m *AdoptCmd) walk(c *codec) byte {
	num(c, &m.Seq, 8)
	num(c, &m.ID, 8)
	return tAdoptCmd
}

func (m *ReleasePrefixCmd) walk(c *codec) byte {
	num(c, &m.ID, 8)
	return tReleasePrefixCmd
}

func (m *CapQueryCmd) walk(c *codec) byte {
	ints(c, &m.Seqs)
	return tCapQueryCmd
}

func (*StatsCmd) walk(*codec) byte    { return tStatsCmd }
func (*TraceCmd) walk(*codec) byte    { return tTraceCmd }
func (*ShutdownCmd) walk(*codec) byte { return tShutdownCmd }

func (m *FailureNote) walk(c *codec) byte {
	num(c, &m.Rank, 8)
	c.str(&m.Cause)
	return tFailureNote
}

func (m *PrefillResult) walk(c *codec) byte {
	c.tensor(&m.Logits)
	i32s(c, &m.IDs)
	c.str(&m.Err)
	return tPrefillResult
}

func (m *DecodeResult) walk(c *codec) byte {
	c.f32s(&m.Flat)
	i32s(c, &m.IDs)
	c.str(&m.Err)
	return tDecodeResult
}

func (m *Ack) walk(c *codec) byte {
	c.str(&m.Err)
	return tAck
}

func (m *DetachResult) walk(c *codec) byte {
	ints(c, &m.PerLayer)
	c.str(&m.Err)
	return tDetachResult
}

func (m *CapResult) walk(c *codec) byte {
	num(c, &m.Capacity, 8)
	ints(c, &m.Avail)
	c.intss(&m.Overhead)
	c.str(&m.Err)
	return tCapResult
}

func (m *StatsResult) walk(c *codec) byte {
	num(c, &m.CacheTokens, 8)
	ints(c, &m.Assembly)
	c.strs(&m.Kinds)
	ints(c, &m.Msgs)
	c.f64s(&m.Bytes)
	records(c, &m.Links, 8*6)
	num(c, &m.IntegrityChecked, 8)
	num(c, &m.IntegrityRejected, 8)
	c.strs(&m.ChaosKinds)
	ints(c, &m.ChaosCounts)
	c.str(&m.Err)
	return tStatsResult
}

func (l *LinkStat) fields(c *codec) {
	num(c, &l.Src, 8)
	num(c, &l.Dst, 8)
	num(c, &l.Messages, 8)
	c.f64(&l.Bytes)
	num(c, &l.WireMsgs, 8)
	num(c, &l.WireBytes, 8)
}

// Minimum encoded span: two string headers, six fixed u64s, two vector
// headers = 64 bytes; a series likewise bottoms out at 41.
func (m *TraceResult) walk(c *codec) byte {
	num(c, &m.Rank, 8)
	records(c, &m.Spans, 64)
	records(c, &m.Series, 41)
	c.str(&m.Err)
	return tTraceResult
}

func (s *TraceSpan) fields(c *codec) {
	c.str(&s.Name)
	c.str(&s.Cat)
	num(c, &s.Rank, 8)
	num(c, &s.Seq, 8)
	num(c, &s.Epoch, 8)
	num(c, &s.Index, 8)
	num(c, &s.Start, 8)
	num(c, &s.Dur, 8)
	c.strs(&s.ArgKeys)
	ints(c, &s.ArgVals)
}

func (s *TraceSeries) fields(c *codec) {
	c.str(&s.Name)
	c.strs(&s.LabelKeys)
	c.strs(&s.LabelVals)
	num(c, &s.Kind, 1)
	c.f64(&s.Value)
	num(c, &s.Count, 8)
	c.f64(&s.Sum)
	ints(c, &s.Counts)
}

// The three payloads that are not structs walk through named stand-ins.
type (
	nilPayload struct{}
	intVec     []int
	floatVec   []float64
)

func (*nilPayload) walk(*codec) byte { return tNil }

func (v *intVec) walk(c *codec) byte {
	ints(c, (*[]int)(v))
	return tIntVec
}

func (v *floatVec) walk(c *codec) byte {
	c.f64s((*[]float64)(v))
	return tFloatVec
}

// asFrame is the walk of payload v, nil when v has no wire layout.
func asFrame(v any) frame {
	switch x := v.(type) {
	case frame:
		return x
	case nil:
		return (*nilPayload)(nil)
	case []int:
		return (*intVec)(&x)
	case []float64:
		return (*floatVec)(&x)
	}
	return nil
}

// payload is the value Decode returns for a walked frame: the stand-ins
// unwrapped, every struct frame as itself.
func payload(f frame) any {
	switch x := f.(type) {
	case *nilPayload:
		return nil
	case *intVec:
		return []int(*x)
	case *floatVec:
		return []float64(*x)
	}
	return f
}

// newFrame makes the empty frame Decode walks, indexed by type id.
var newFrame = [...]func() frame{
	tNil:              alloc[nilPayload],
	tIntVec:           alloc[intVec],
	tFloatVec:         alloc[floatVec],
	tKVBlock:          alloc[KVBlock],
	tQBlock:           alloc[QBlock],
	tOBlock:           alloc[OBlock],
	tHello:            alloc[Hello],
	tHeartbeat:        alloc[Heartbeat],
	tPrefillCmd:       alloc[PrefillCmd],
	tDecodeCmd:        alloc[DecodeCmd],
	tDropCmd:          alloc[DropCmd],
	tDetachCmd:        alloc[DetachCmd],
	tAdoptCmd:         alloc[AdoptCmd],
	tReleasePrefixCmd: alloc[ReleasePrefixCmd],
	tCapQueryCmd:      alloc[CapQueryCmd],
	tStatsCmd:         alloc[StatsCmd],
	tShutdownCmd:      alloc[ShutdownCmd],
	tPrefillResult:    alloc[PrefillResult],
	tDecodeResult:     alloc[DecodeResult],
	tAck:              alloc[Ack],
	tDetachResult:     alloc[DetachResult],
	tCapResult:        alloc[CapResult],
	tStatsResult:      alloc[StatsResult],
	tFailureNote:      alloc[FailureNote],
	tTraceCmd:         alloc[TraceCmd],
	tTraceResult:      alloc[TraceResult],
}

func alloc[T any, P interface {
	*T
	frame
}]() frame {
	return P(new(T))
}

// codec is one walk's state: the frame bytes, the read offset and first
// error when decoding. Encoding only appends and never writes a field, so
// one payload may be encoded by several goroutines at once. The walks reach
// the codec through the frame interface, which moves it to the heap, so
// Append and Decode recycle it instead of allocating one per frame.
type codec struct {
	b   []byte
	off int
	dec bool
	err error
}

// codecs holds more codecs than walks run at once: one per link reader and
// sender.
var codecs = parallel.NewFreeList[codec](256, nil)

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("wire: "+format, args...)
	}
}

// next returns the n bytes of the walk's next field: appended to the frame
// when encoding, the unread bytes at off when decoding (nil, with the error
// recorded, when fewer than n remain).
func (c *codec) next(n int) []byte {
	if !c.dec {
		off := len(c.b)
		c.b = slices.Grow(c.b, n)[:off+n]
		return c.b[off:]
	}
	if c.err != nil {
		return nil
	}
	if len(c.b)-c.off < n {
		c.fail("truncated frame: need %d bytes at offset %d of %d", n, c.off, len(c.b))
		return nil
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s
}

// num walks an integer field as its size low bytes, little-endian. The
// walks give every field its width: a Go int always travels as 8 bytes.
func num[T uint8 | uint16 | uint32 | uint64 | int | int64](c *codec, p *T, size int) {
	s := c.next(size)
	if s == nil {
		return
	}
	var b [8]byte
	if c.dec {
		copy(b[:], s)
		*p = T(binary.LittleEndian.Uint64(b[:]))
	} else {
		binary.LittleEndian.PutUint64(b[:], uint64(*p))
		copy(s, b[:])
	}
}

func (c *codec) f64(p *float64) {
	v := math.Float64bits(*p)
	num(c, &v, 8)
	if c.dec {
		*p = math.Float64frombits(v)
	}
}

// count walks a vector's length. A decoded length is checked against the
// bytes left, each element taking at least minSize of them, so a corrupt
// count fails instead of allocating.
func (c *codec) count(n, minSize int) int {
	v := uint32(n)
	num(c, &v, 4)
	if !c.dec {
		return n
	}
	if c.err != nil {
		return 0
	}
	if n = int(v); n*minSize > len(c.b)-c.off {
		c.fail("count %d exceeds remaining %d bytes", n, len(c.b)-c.off)
		return 0
	}
	return n
}

// sized walks the length of *p and, when decoding, makes *p that long,
// reusing its storage when that is large enough (a recycled frame's); an
// empty vector of a fresh frame decodes as nil. Either way it re-encodes
// canonically.
func sized[T any](c *codec, p *[]T, minSize int) {
	if n := c.count(len(*p), minSize); c.dec {
		*p = tensor.Grown(*p, n)
	}
}

// The numeric vectors are bulk rows: next checks the frame's bounds once for
// the whole row, not once per element.

// ints walks a vector of 8-byte integers.
func ints[T int | int64](c *codec, p *[]T) {
	sized(c, p, 8)
	s := c.next(8 * len(*p))
	if s == nil {
		return
	}
	if v := *p; c.dec {
		for i := range v {
			v[i] = T(binary.LittleEndian.Uint64(s))
			s = s[8:]
		}
	} else {
		for _, x := range v {
			binary.LittleEndian.PutUint64(s, uint64(x))
			s = s[8:]
		}
	}
}

// i32s walks a vector of 4-byte integers.
func i32s(c *codec, p *[]int32) {
	sized(c, p, 4)
	s := c.next(4 * len(*p))
	if s == nil {
		return
	}
	if v := *p; c.dec {
		for i := range v {
			v[i] = int32(binary.LittleEndian.Uint32(s))
			s = s[4:]
		}
	} else {
		for _, x := range v {
			binary.LittleEndian.PutUint32(s, uint32(x))
			s = s[4:]
		}
	}
}

func (c *codec) f64s(p *[]float64) {
	sized(c, p, 8)
	s := c.next(8 * len(*p))
	if s == nil {
		return
	}
	if v := *p; c.dec {
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(s))
			s = s[8:]
		}
	} else {
		for _, x := range v {
			binary.LittleEndian.PutUint64(s, math.Float64bits(x))
			s = s[8:]
		}
	}
}

func (c *codec) f32s(p *[]float32) {
	sized(c, p, 4)
	c.f32row(*p)
}

// f32row walks v's elements without a length prefix.
func (c *codec) f32row(v []float32) {
	s := c.next(4 * len(v))
	if s == nil {
		return
	}
	if c.dec {
		for i := range v {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(s))
			s = s[4:]
		}
	} else {
		for _, x := range v {
			binary.LittleEndian.PutUint32(s, math.Float32bits(x))
			s = s[4:]
		}
	}
}

func (c *codec) intss(p *[][]int) {
	sized(c, p, 4)
	for i := range *p {
		ints(c, &(*p)[i])
	}
}

func (c *codec) str(p *string) {
	s := c.next(c.count(len(*p), 1))
	if s == nil {
		return
	}
	if c.dec {
		*p = string(s)
	} else {
		copy(s, *p)
	}
}

func (c *codec) strs(p *[]string) {
	sized(c, p, 4)
	for i := range *p {
		c.str(&(*p)[i])
	}
}

// records walks a vector of structs, each through its fields method.
func records[T any, P interface {
	*T
	fields(*codec)
}](c *codec, p *[]T, minSize int) {
	sized(c, p, minSize)
	for i := range *p {
		P(&(*p)[i]).fields(c)
	}
}

// present walks a presence byte, or a bool field as one: written from have
// when encoding, strictly 0 or 1 when decoding (one byte sequence per value).
func (c *codec) present(have bool) bool {
	var v byte
	if have {
		v = 1
	}
	num(c, &v, 1)
	if v > 1 {
		c.fail("invalid presence byte at offset %d", c.off-1)
	}
	return v == 1 && c.err == nil
}

// reply walks a command's reply mode as one byte. A mode past last, the
// command's final one, fails on either side: encoding it would write a
// frame no peer decodes.
func (c *codec) reply(p *Reply, last Reply) {
	v := uint8(*p)
	num(c, &v, 1)
	if c.err != nil {
		return
	}
	if Reply(v) > last {
		c.fail("reply mode %d past %d", v, last)
		return
	}
	*p = Reply(v)
}

// tensor walks an optional tensor: a presence byte, the shape, the rows. A
// decode reuses *p and its storage when it has some, and clears *p when the
// frame holds none.
func (c *codec) tensor(p **tensor.Tensor) {
	if !c.present(*p != nil) {
		if c.dec {
			*p = nil
		}
		return
	}
	var shape [3]uint32
	if !c.dec {
		t := *p
		shape = [3]uint32{uint32(t.Tokens), uint32(t.Heads), uint32(t.Dim)}
	}
	for i := range shape {
		num(c, &shape[i], 4)
	}
	if !c.dec {
		c.f32row((*p).Data)
		return
	}
	if c.err != nil {
		return
	}
	// Bound the element count stepwise so a corrupt shape cannot overflow
	// the multiplication into a bypassed allocation check.
	const maxElems = 1 << 30
	n := int64(shape[0])
	for _, f := range shape[1:] {
		if n > maxElems || int64(f) > maxElems {
			n = maxElems + 1
			break
		}
		n *= int64(f)
	}
	if n > maxElems || int(n)*4 > len(c.b)-c.off {
		c.fail("tensor shape %v exceeds remaining %d bytes", shape, len(c.b)-c.off)
		return
	}
	t := *p
	if t == nil {
		t = new(tensor.Tensor)
	}
	c.f32row(t.Resize(int(shape[0]), int(shape[1]), int(shape[2])).Data)
	*p = t
}

func (c *codec) output(p **attention.Output) {
	if !c.present(*p != nil) {
		if c.dec {
			*p = nil
		}
		return
	}
	o := *p
	if o == nil {
		o = new(attention.Output)
	}
	c.tensor(&o.O)
	c.f64s(&o.LSE)
	if !c.dec || c.err != nil {
		return
	}
	if o.O == nil {
		c.fail("output frame without tensor")
		return
	}
	if len(o.LSE) != o.O.Tokens*o.O.Heads {
		c.fail("output LSE length %d for shape [%d %d]", len(o.LSE), o.O.Tokens, o.O.Heads)
		return
	}
	*p = o
}

// Append encodes v (type id byte plus payload, no length prefix) onto buf
// and returns the extended slice. The supported payload set is closed; any
// other type is an error, never a silent fallback encoding, and so is a
// field no decoder accepts (a reply mode the command does not take).
func Append(buf []byte, v any) ([]byte, error) {
	f := asFrame(v)
	if f == nil {
		return buf, fmt.Errorf("wire: unsupported payload type %T", v)
	}
	at := len(buf)
	c := codecs.Get()
	c.b = append(buf, 0)
	id := f.walk(c)
	out, err := c.b, c.err
	*c = codec{}
	codecs.Put(c)
	if err != nil {
		return buf, err
	}
	out[at] = id
	return out, nil
}

// Decode parses one encoded payload (type id byte plus body, no length
// prefix). Trailing bytes are a framing error.
func Decode(b []byte) (any, error) {
	f, err := decodeInto(b, nil)
	if err != nil {
		return nil, err
	}
	return payload(f), nil
}

// decodeInto is Decode into f, a frame of the payload's kind whose storage
// the walk reuses where it is large enough, or into a fresh frame when f is
// nil. Every field is walked, so nothing of f's earlier contents survives.
func decodeInto(b []byte, f frame) (frame, error) {
	if len(b) == 0 {
		return nil, errors.New("wire: empty payload")
	}
	id := b[0]
	if int(id) >= len(newFrame) || newFrame[id] == nil {
		return nil, fmt.Errorf("wire: unknown payload type id %d", id)
	}
	if f == nil {
		f = newFrame[id]()
	}
	c := codecs.Get()
	*c = codec{b: b, off: 1, dec: true}
	if f.walk(c) != id {
		c.fail("type id %d walks as %T", id, f)
	}
	off, err := c.off, c.err
	*c = codec{}
	codecs.Put(c)
	if err != nil {
		return nil, err
	}
	if off != len(b) {
		return nil, fmt.Errorf("wire: %d trailing bytes after type %d payload", len(b)-off, id)
	}
	return f, nil
}

// maxKept bounds, in bytes, what a Writer, a Reader or Spares keep from one
// frame to the next. A larger buffer or block is left to the garbage
// collector after its frame, so one huge frame does not pin its size for
// the life of a link.
const maxKept = 4 << 20

// Spares holds the data-plane blocks — KVBlock, QBlock and OBlock — that a
// receiver handed back, for a Reader to decode later frames of the same kind
// into. Each kind's list is a bounded channel rather than a sync.Pool, whose
// entries every other garbage collection would drop. Safe for concurrent
// use.
type Spares struct {
	lists [tOBlock + 1]chan frame // by type id; nil but for the three blocks
}

// NewSpares returns spare lists that keep up to n blocks of each kind.
func NewSpares(n int) *Spares {
	s := new(Spares)
	for _, id := range []byte{tKVBlock, tQBlock, tOBlock} {
		s.lists[id] = make(chan frame, n)
	}
	return s
}

// Recyclable reports whether Spares keeps v: a KV, query or output block
// holding at most the keep bound.
func Recyclable(v any) bool {
	_, ok := spareKind(v)
	return ok
}

// spareKind returns the type id of a block Spares keeps.
func spareKind(v any) (byte, bool) {
	var id byte
	var size int
	switch b := v.(type) {
	case *KVBlock:
		if b == nil {
			return 0, false
		}
		id, size = tKVBlock, tensorBytes(b.K)+tensorBytes(b.V)+8*(cap(b.Pos)+cap(b.Seq))
	case *QBlock:
		if b == nil {
			return 0, false
		}
		id, size = tQBlock, tensorBytes(b.Q)+8*(cap(b.Pos)+cap(b.Seq))
	case *OBlock:
		if b == nil {
			return 0, false
		}
		id = tOBlock
		if b.Out != nil {
			size = tensorBytes(b.Out.O) + 8*cap(b.Out.LSE)
		}
	default:
		return 0, false
	}
	return id, size <= maxKept
}

func tensorBytes(t *tensor.Tensor) int {
	if t == nil {
		return 0
	}
	return 4 * cap(t.Data)
}

// Put keeps v for a later decode when it is Recyclable and its kind's list
// has room, and drops it otherwise. The caller must not touch v afterwards.
func (s *Spares) Put(v any) {
	id, ok := spareKind(v)
	if !ok {
		return
	}
	select {
	case s.lists[id] <- v.(frame):
	default:
	}
}

// take returns a kept block of kind id, or nil when there is none (or s is
// nil).
func (s *Spares) take(id byte) frame {
	if s == nil || int(id) >= len(s.lists) {
		return nil
	}
	select {
	case f := <-s.lists[id]:
		return f
	default:
		return nil
	}
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
// frame past 4 GiB would silently wrap the length prefix). It is the
// one-shot form of Writer.WriteFrame.
func WriteFrame(w io.Writer, v any) (int, error) {
	var fw Writer
	return fw.WriteFrame(w, v)
}

// A Writer encodes frames into a buffer it keeps between them, so a stream
// of frames allocates nothing once the buffer has grown to fit the largest.
// A buffer past the keep bound is dropped after its frame. A Writer is not
// safe for concurrent use: a link serializes its frames under a lock.
type Writer struct {
	buf []byte
}

// Frame encodes v as one complete frame (AppendFrame's bytes) into the
// writer's buffer and returns them, valid until the writer's next call.
func (w *Writer) Frame(v any) ([]byte, error) {
	b, err := AppendFrame(w.buf[:0], v)
	w.buf = keep(b)
	return b, err
}

// keep is b, or nil when b is past the keep bound.
func keep(b []byte) []byte {
	if cap(b) > maxKept {
		return nil
	}
	return b
}

// WriteFrame is WriteFrame through the writer's buffer.
func (w *Writer) WriteFrame(dst io.Writer, v any) (int, error) {
	b, err := w.Frame(v)
	if err != nil {
		return 0, err
	}
	n, err := dst.Write(b)
	if err != nil {
		return n, err
	}
	return len(b), nil
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
// decode failures of an intact frame wrap ErrBadFrame. It is the one-shot
// form of Reader.ReadFrame.
func ReadFrame(r io.Reader, maxFrame int) (any, int, error) {
	var fr Reader
	return fr.ReadFrame(r, maxFrame)
}

// A Reader reads frames into a body buffer it keeps between them, so a
// stream of frames allocates only what their payloads hold — and, with
// Spares, a data-plane block not even that once one of its kind has been
// handed back. Nor does a prefill or decode command or result, once the
// reader's own frame of its kind has grown to fit it. Every walk copies its
// fields out of the body, so no payload aliases the buffer. A body past the
// keep bound is dropped after its frame. A Reader is not safe for concurrent
// use: one goroutine reads a link.
type Reader struct {
	// Spares, when set, supplies the blocks that KV, query and output frames
	// are decoded into, their storage reused where it is large enough.
	Spares *Spares
	hdr    [4]byte
	body   []byte
	// A PrefillCmd, DecodeCmd, PrefillResult or DecodeResult is decoded
	// into the one frame of its kind the reader keeps, valid until the
	// reader reads the next frame of that kind. Only a control connection
	// carries these, and its command stream is lockstep: the coordinator
	// sends a command only once every worker has answered the one before,
	// so a worker's end has finished with a command — run it and sent the
	// reply — before the next one can arrive, and the coordinator's end has
	// read every result before the command that draws the next goes out.
	prefillCmd *PrefillCmd
	decodeCmd  *DecodeCmd
	prefill    *PrefillResult
	decode     *DecodeResult
}

// ReadFrame is ReadFrame through the reader's buffer.
func (r *Reader) ReadFrame(src io.Reader, maxFrame int) (any, int, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if _, err := io.ReadFull(src, r.hdr[:]); err != nil {
		return nil, 0, err
	}
	n := int(binary.LittleEndian.Uint32(r.hdr[:]))
	// Minimum frame: one type-id byte plus the 4-byte CRC trailer.
	if n < 5 || n > maxFrame {
		return nil, 4, fmt.Errorf("%w: frame length %d outside [5,%d]", ErrBadFrame, n, maxFrame)
	}
	body := tensor.Grown(r.body, n)
	r.body = keep(body)
	if _, err := io.ReadFull(src, body); err != nil {
		return nil, 4, fmt.Errorf("wire: short frame body: %w", err)
	}
	integrityChecked.Add(1)
	want := binary.LittleEndian.Uint32(body[n-4:])
	if got := crc32.Checksum(body[:n-4], castagnoli); got != want {
		integrityRejected.Add(1)
		return nil, 4 + n, fmt.Errorf("%w: crc32c %08x, frame claims %08x over %d bytes", ErrIntegrity, got, want, n-4)
	}
	into := r.Spares.take(body[0])
	if into == nil {
		into = r.kept(body[0])
	}
	f, err := decodeInto(body[:n-4], into)
	if err != nil {
		return nil, 4 + n, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	r.forgetLarge(f)
	return payload(f), 4 + n, nil
}

// kept returns the reader's frame of kind id, made on first use, or nil
// when id is not a kind the reader keeps.
func (r *Reader) kept(id byte) frame {
	switch id {
	case tPrefillCmd:
		return keptFrame(&r.prefillCmd)
	case tDecodeCmd:
		return keptFrame(&r.decodeCmd)
	case tPrefillResult:
		return keptFrame(&r.prefill)
	case tDecodeResult:
		return keptFrame(&r.decode)
	default:
		return nil
	}
}

// keptFrame is *p, made first if it is nil.
func keptFrame[T any, P interface {
	*T
	frame
}](p *P) frame {
	if *p == nil {
		*p = P(new(T))
	}
	return *p
}

// forgetLarge drops the kept frame f when it holds more than the keep bound
// (an all-rows prefill's logits, a long prompt's tokens), so the next one
// decodes fresh.
func (r *Reader) forgetLarge(f frame) {
	switch {
	case f == frame(r.prefillCmd):
		n := cap(r.prefillCmd.Seqs) + cap(r.prefillCmd.P) + cap(r.prefillCmd.Tokens)
		for _, toks := range r.prefillCmd.Tokens {
			n += cap(toks)
		}
		if 8*n > maxKept {
			r.prefillCmd = nil
		}
	case f == frame(r.decodeCmd):
		if 8*(cap(r.decodeCmd.Seqs)+cap(r.decodeCmd.Tokens)+cap(r.decodeCmd.Pos)+cap(r.decodeCmd.Owners)) > maxKept {
			r.decodeCmd = nil
		}
	case f == frame(r.prefill):
		if tensorBytes(r.prefill.Logits)+4*cap(r.prefill.IDs) > maxKept {
			r.prefill = nil
		}
	case f == frame(r.decode):
		if 4*(cap(r.decode.Flat)+cap(r.decode.IDs)) > maxKept {
			r.decode = nil
		}
	}
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
