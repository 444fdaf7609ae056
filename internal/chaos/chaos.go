// Package chaos is a seeded, fully deterministic fault-injection layer for
// the distributed CP transport. It wraps any transport.Transport and
// executes a declarative fault schedule — rank crash, link drop, network
// partition, slow links (straggler simulation), frame bit-flip corruption,
// truncation, and duplicate delivery — each fired at an exact logical step
// count (the n-th data frame sent on a directed link, or the n-th send of a
// rank), never at a wall-clock time. Given the same schedule and the same
// driving traffic, every chaos run therefore injects byte-for-byte the same
// faults at the same protocol steps, which is what makes a chaos soak
// replayable from its seed.
//
// Faults are send-side: each fault names an acting rank (the source of a
// link fault, the crashing rank), and only the process hosting that rank
// executes it. Every worker can be handed the same schedule; each fires the
// subset it acts in.
//
// Byte-level faults (corrupt, truncate, duplicate) need access to encoded
// frames and therefore require a transport exposing SetFrameTap (the TCP
// mesh). Topology faults (drop, partition) prefer DropLink — cutting the
// real connection so both ends observe the failure — and degrade to
// FailLink on transports without it (the in-process mailboxes).
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/comm/transport"
	"repro/internal/comm/wire"
)

// Kind names a fault type.
type Kind string

const (
	// KindCrash simulates a rank process crash: every link the rank hosts
	// is cut and every subsequent operation it attempts fails, until the
	// next epoch's transport is wrapped (the "respawned" incarnation).
	KindCrash Kind = "crash"
	// KindDrop cuts one link. The underlying connection carries both
	// directions, so the whole rank pair loses connectivity.
	KindDrop Kind = "drop"
	// KindPartition cuts every link crossing a two-group cut of the ranks.
	KindPartition Kind = "partition"
	// KindSlow delays each of Span consecutive sends on a link by Delay —
	// the straggler simulation. It is the one fault kind that must not
	// trigger recovery (the soak asserts it slows, not kills).
	KindSlow Kind = "slow"
	// KindCorrupt flips one bit inside a frame's payload on the wire; the
	// receiver's CRC32C check must reject it (wire.ErrIntegrity).
	KindCorrupt Kind = "corrupt"
	// KindTruncate cuts a frame short on the wire, desynchronizing the
	// stream; the receiver detects it as a framing or integrity error.
	KindTruncate Kind = "truncate"
	// KindDuplicate writes a frame twice. The duplicate is CRC-valid, so
	// detection is the protocol layer's job: on lockstep links the extra
	// frame desynchronizes command/reply matching and poisons the plane
	// into recovery.
	KindDuplicate Kind = "duplicate"
)

// Kinds lists every fault kind in canonical order.
var Kinds = []Kind{KindCrash, KindDrop, KindPartition, KindSlow, KindCorrupt, KindTruncate, KindDuplicate}

// Fault is one scheduled injection.
type Fault struct {
	Kind Kind
	// Src/Dst is the directed link of a link fault; Src is the acting rank.
	Src, Dst int
	// Rank is the acting rank of a crash.
	Rank int
	// Groups is the two-sided cut of a partition. Every rank in the
	// schedule's world must appear in exactly one group.
	Groups [][]int
	// Step is the logical firing point: for link faults, the Step-th data
	// frame sent on Src->Dst (0-based, heartbeats excluded); for crash and
	// partition, the acting rank's Step-th send across all its links.
	Step int64
	// Delay and Span parameterize slow: each of the Span sends starting at
	// Step is delayed by Delay. Span defaults to 1.
	Delay time.Duration
	Span  int64
}

// String renders the fault in schedule grammar.
func (f Fault) String() string {
	switch f.Kind {
	case KindCrash:
		return fmt.Sprintf("crash@%d#%d", f.Rank, f.Step)
	case KindPartition:
		sides := make([]string, len(f.Groups))
		for i, g := range f.Groups {
			parts := make([]string, len(g))
			for j, r := range g {
				parts[j] = strconv.Itoa(r)
			}
			sides[i] = strings.Join(parts, ",")
		}
		return fmt.Sprintf("partition@%s#%d", strings.Join(sides, "|"), f.Step)
	case KindSlow:
		return fmt.Sprintf("slow@%d->%d#%d:%s*%d", f.Src, f.Dst, f.Step, f.Delay, f.Span)
	default:
		return fmt.Sprintf("%s@%d->%d#%d", f.Kind, f.Src, f.Dst, f.Step)
	}
}

// Schedule is a parsed fault schedule.
type Schedule struct {
	Faults []Fault
}

// String renders the schedule in the grammar Parse accepts, canonically.
func (s *Schedule) String() string {
	parts := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ";")
}

// Parse reads a fault schedule. Grammar (semicolon-separated faults):
//
//	crash@RANK#STEP
//	drop@SRC->DST#STEP
//	partition@R,R,...|R,R,...#STEP
//	slow@SRC->DST#STEP:DELAY*SPAN      (SPAN optional, default 1)
//	corrupt@SRC->DST#STEP
//	truncate@SRC->DST#STEP
//	duplicate@SRC->DST#STEP
//
// DELAY is a Go duration ("2ms"). STEP is the 0-based logical step count
// described on Fault.Step. world bounds rank validation (0 skips it).
func Parse(spec string, world int) (*Schedule, error) {
	s := &Schedule{}
	if strings.TrimSpace(spec) == "" {
		return s, nil
	}
	checkRank := func(r int) error {
		if r < 0 || (world > 0 && r >= world) {
			return fmt.Errorf("rank %d outside world [0,%d)", r, world)
		}
		return nil
	}
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(item, "@")
		if !ok {
			return nil, fmt.Errorf("chaos: fault %q: missing '@'", item)
		}
		target, rest, ok := strings.Cut(rest, "#")
		if !ok {
			return nil, fmt.Errorf("chaos: fault %q: missing '#STEP'", item)
		}
		stepStr, params, _ := strings.Cut(rest, ":")
		step, err := strconv.ParseInt(stepStr, 10, 64)
		if err != nil || step < 0 {
			return nil, fmt.Errorf("chaos: fault %q: bad step %q", item, stepStr)
		}
		f := Fault{Kind: Kind(kindStr), Step: step, Span: 1}
		switch f.Kind {
		case KindCrash:
			if f.Rank, err = strconv.Atoi(target); err != nil {
				return nil, fmt.Errorf("chaos: fault %q: bad rank %q", item, target)
			}
			if err := checkRank(f.Rank); err != nil {
				return nil, fmt.Errorf("chaos: fault %q: %v", item, err)
			}
		case KindPartition:
			sides := strings.Split(target, "|")
			if len(sides) != 2 {
				return nil, fmt.Errorf("chaos: fault %q: partition needs exactly two groups", item)
			}
			seen := map[int]bool{}
			for _, side := range sides {
				var g []int
				for _, rs := range strings.Split(side, ",") {
					r, err := strconv.Atoi(strings.TrimSpace(rs))
					if err != nil {
						return nil, fmt.Errorf("chaos: fault %q: bad rank %q", item, rs)
					}
					if err := checkRank(r); err != nil {
						return nil, fmt.Errorf("chaos: fault %q: %v", item, err)
					}
					if seen[r] {
						return nil, fmt.Errorf("chaos: fault %q: rank %d in both groups", item, r)
					}
					seen[r] = true
					g = append(g, r)
				}
				f.Groups = append(f.Groups, g)
			}
			if world > 0 && len(seen) != world {
				return nil, fmt.Errorf("chaos: fault %q: groups cover %d of %d ranks", item, len(seen), world)
			}
		case KindDrop, KindSlow, KindCorrupt, KindTruncate, KindDuplicate:
			srcStr, dstStr, ok := strings.Cut(target, "->")
			if !ok {
				return nil, fmt.Errorf("chaos: fault %q: link target must be SRC->DST", item)
			}
			if f.Src, err = strconv.Atoi(srcStr); err != nil {
				return nil, fmt.Errorf("chaos: fault %q: bad src %q", item, srcStr)
			}
			if f.Dst, err = strconv.Atoi(dstStr); err != nil {
				return nil, fmt.Errorf("chaos: fault %q: bad dst %q", item, dstStr)
			}
			if err := checkRank(f.Src); err != nil {
				return nil, fmt.Errorf("chaos: fault %q: %v", item, err)
			}
			if err := checkRank(f.Dst); err != nil {
				return nil, fmt.Errorf("chaos: fault %q: %v", item, err)
			}
			if f.Src == f.Dst {
				return nil, fmt.Errorf("chaos: fault %q: src equals dst", item)
			}
			if f.Kind == KindSlow {
				delayStr, spanStr, hasSpan := strings.Cut(params, "*")
				if f.Delay, err = time.ParseDuration(delayStr); err != nil || f.Delay <= 0 {
					return nil, fmt.Errorf("chaos: fault %q: bad delay %q", item, delayStr)
				}
				if hasSpan {
					if f.Span, err = strconv.ParseInt(spanStr, 10, 64); err != nil || f.Span <= 0 {
						return nil, fmt.Errorf("chaos: fault %q: bad span %q", item, spanStr)
					}
				}
			} else if params != "" {
				return nil, fmt.Errorf("chaos: fault %q: %s takes no params", item, f.Kind)
			}
		default:
			return nil, fmt.Errorf("chaos: fault %q: unknown kind %q", item, kindStr)
		}
		s.Faults = append(s.Faults, f)
	}
	return s, nil
}

// splitmix64 is the repo's standard avalanche hash (seqOwnerOffset,
// transport.Backoff); chaos uses it as its seeded PRNG step.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Soak derives the standard four-kind soak schedule from a seed: a slow
// link early, then a corrupted frame, a partition, and a rank crash, each
// separated by roughly phase logical steps so every fault deterministically
// triggers (and completes) its own recovery before the next fires. Link and
// rank choices are pure functions of the seed; the same seed always yields
// the identical schedule.
func Soak(seed uint64, world int, phase int64) *Schedule {
	if world < 2 {
		panic("chaos: soak needs at least 2 ranks")
	}
	if phase <= 0 {
		phase = 300
	}
	n := uint64(world)
	pick := func(i uint64) uint64 { return splitmix64(seed + i) }
	link := func(i uint64) (int, int) {
		src := int(pick(i) % n)
		dst := int(pick(i+1) % (n - 1))
		if dst >= src {
			dst++
		}
		return src, dst
	}
	slowSrc, slowDst := link(1)
	corSrc, corDst := link(3)
	// Partition: one seeded rank against the rest.
	lone := int(pick(5) % n)
	var rest []int
	for r := 0; r < world; r++ {
		if r != lone {
			rest = append(rest, r)
		}
	}
	crash := int(pick(6) % n)
	return &Schedule{Faults: []Fault{
		{Kind: KindSlow, Src: slowSrc, Dst: slowDst, Step: phase / 4, Delay: 2 * time.Millisecond, Span: 32},
		{Kind: KindCorrupt, Src: corSrc, Dst: corDst, Step: phase},
		{Kind: KindPartition, Groups: [][]int{{lone}, rest}, Step: 2 * phase},
		{Kind: KindCrash, Rank: crash, Step: 3 * phase},
	}}
}

// Process-global injected-fault counters, by kind. They feed the serving
// layer's chaos stats block: workers report them in StatsResult, the same
// way the wire package's integrity counters travel.
var (
	totalsMu sync.Mutex
	totals   = map[Kind]int64{}
)

func countFault(k Kind) {
	totalsMu.Lock()
	totals[k]++
	totalsMu.Unlock()
}

// Totals reports every fault kind this process has injected, with counts,
// kinds sorted — the StatsResult/stats-block form.
func Totals() (kinds []string, counts []int64) {
	totalsMu.Lock()
	defer totalsMu.Unlock()
	for k := range totals {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	counts = make([]int64, len(kinds))
	for i, k := range kinds {
		counts[i] = totals[Kind(k)]
	}
	return kinds, counts
}

// linkDropper is the optional transport hook for observable link cuts.
type linkDropper interface {
	DropLink(peer int, cause error)
}

// frameTapper is the optional transport hook for byte-level faults.
type frameTapper interface {
	SetFrameTap(transport.FrameTap)
}

// Injector executes one schedule. It outlives any single transport
// incarnation: per-link logical clocks and fired-fault state persist across
// Wrap calls, so a fault consumed before a recovery rebuild never fires
// again on the rejoined mesh, and later faults keep counting from where the
// retired incarnation stopped.
type Injector struct {
	sched *Schedule

	mu       sync.Mutex
	fired    []bool           // one-shot faults already executed
	slowLeft []int64          // remaining delayed sends of slow faults
	linkOps  map[[2]int]int64 // cumulative data frames per directed link
	rankOps  map[int]int64    // cumulative sends per acting rank
	crashed  map[int]bool     // ranks dead until the next Wrap
	counts   map[Kind]int64
}

// NewInjector builds an injector for the schedule (nil = empty).
func NewInjector(s *Schedule) *Injector {
	if s == nil {
		s = &Schedule{}
	}
	in := &Injector{
		sched:    s,
		fired:    make([]bool, len(s.Faults)),
		slowLeft: make([]int64, len(s.Faults)),
		linkOps:  make(map[[2]int]int64),
		rankOps:  make(map[int]int64),
		crashed:  map[int]bool{},
		counts:   map[Kind]int64{},
	}
	for i, f := range s.Faults {
		if f.Kind == KindSlow {
			in.slowLeft[i] = f.Span
		}
	}
	return in
}

// Counts returns this injector's injected-fault counts by kind.
func (in *Injector) Counts() map[Kind]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Injected returns the total faults this injector has fired.
func (in *Injector) Injected() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, v := range in.counts {
		n += v
	}
	return n
}

// Wrap returns t with the schedule armed on it. A new incarnation of a
// crashed rank comes back alive (the crash consumed itself); logical clocks
// continue from the previous incarnation. Byte-level faults are armed via
// the transport's frame tap when it has one; a schedule containing them
// over a transport without SetFrameTap fails loudly rather than silently
// skipping faults.
func (in *Injector) Wrap(t transport.Transport) (transport.Transport, error) {
	in.mu.Lock()
	for _, r := range t.LocalRanks() {
		delete(in.crashed, r)
	}
	needsTap := false
	for i, f := range in.sched.Faults {
		if in.fired[i] {
			continue
		}
		if f.Kind == KindCorrupt || f.Kind == KindTruncate || f.Kind == KindDuplicate {
			if in.hosts(t, f.Src) {
				needsTap = true
			}
		}
	}
	in.mu.Unlock()
	ct := &chaosTransport{in: in, inner: t}
	if needsTap {
		ft, ok := t.(frameTapper)
		if !ok {
			return nil, fmt.Errorf("chaos: schedule has byte-level faults but transport %T has no frame tap", t)
		}
		local := t.LocalRanks()
		if len(local) != 1 {
			return nil, fmt.Errorf("chaos: byte-level faults need a single-rank transport, got ranks %v", local)
		}
		src := local[0]
		ft.SetFrameTap(func(dst int, seq int64, frame []byte) [][]byte {
			return in.tapFrame(src, dst, frame)
		})
	}
	return ct, nil
}

func (in *Injector) hosts(t transport.Transport, rank int) bool {
	for _, r := range t.LocalRanks() {
		if r == rank {
			return true
		}
	}
	return false
}

// tapFrame applies byte-level faults to one outgoing frame on src->dst. The
// frame index used for firing is the injector's own per-link clock,
// advanced in beforeSend — the tap runs inside the same Send call, after
// beforeSend counted it, so both layers agree on the step number (the clock
// has already moved past it, hence the -1).
func (in *Injector) tapFrame(src, dst int, frame []byte) [][]byte {
	in.mu.Lock()
	step := in.linkOps[[2]int{src, dst}] - 1
	var fire *Fault
	var fireIdx int
	for i := range in.sched.Faults {
		f := &in.sched.Faults[i]
		if in.fired[i] || f.Src != src || f.Dst != dst || f.Step != step {
			continue
		}
		if f.Kind == KindCorrupt || f.Kind == KindTruncate || f.Kind == KindDuplicate {
			fire, fireIdx = f, i
			break
		}
	}
	if fire != nil {
		in.fired[fireIdx] = true
		in.counts[fire.Kind]++
	}
	in.mu.Unlock()
	if fire == nil {
		return [][]byte{frame}
	}
	countFault(fire.Kind)
	switch fire.Kind {
	case KindCorrupt:
		// Flip one payload bit past the length prefix; the CRC trailer
		// makes the receiver reject the frame instead of decoding it.
		mangled := append([]byte(nil), frame...)
		mangled[4+(len(mangled)-4)/2] ^= 0x10
		return [][]byte{mangled}
	case KindTruncate:
		// Ship only the front half: the receiver's framing desynchronizes
		// and the next bytes on the stream fail the length or CRC check.
		return [][]byte{frame[:4+(len(frame)-4)/2]}
	case KindDuplicate:
		return [][]byte{frame, frame}
	}
	return [][]byte{frame}
}

// errCrashed is the failure every operation of a chaos-crashed rank gets.
var errCrashed = fmt.Errorf("%w: chaos: rank crashed", transport.ErrLinkFailed)

// beforeSend advances the logical clocks for one send on src->dst and
// executes any fault scheduled at the step just consumed. It returns the
// delay to apply (slow links) and whether the rank is dead.
func (in *Injector) beforeSend(t transport.Transport, src, dst int) (delay time.Duration, crashed bool) {
	in.mu.Lock()
	if in.crashed[src] {
		in.mu.Unlock()
		return 0, true
	}
	linkStep := in.linkOps[[2]int{src, dst}]
	rankStep := in.rankOps[src]
	in.linkOps[[2]int{src, dst}]++
	in.rankOps[src]++
	type action struct {
		f   *Fault
		idx int
	}
	var acts []action
	for i := range in.sched.Faults {
		f := &in.sched.Faults[i]
		if in.fired[i] {
			continue
		}
		switch f.Kind {
		case KindDrop:
			if f.Src == src && f.Dst == dst && f.Step == linkStep {
				acts = append(acts, action{f, i})
			}
		case KindSlow:
			if f.Src == src && f.Dst == dst && linkStep >= f.Step && in.slowLeft[i] > 0 {
				in.slowLeft[i]--
				delay += f.Delay
				in.counts[KindSlow]++
				countFault(KindSlow)
				if in.slowLeft[i] == 0 {
					in.fired[i] = true
				}
			}
		case KindCrash:
			if f.Rank == src && f.Step == rankStep {
				acts = append(acts, action{f, i})
			}
		case KindPartition:
			if f.Step == rankStep && in.inGroups(f, src) {
				acts = append(acts, action{f, i})
			}
		}
	}
	for _, a := range acts {
		in.fired[a.idx] = true
		in.counts[a.f.Kind]++
	}
	crashNow := false
	for _, a := range acts {
		if a.f.Kind == KindCrash {
			in.crashed[src] = true
			crashNow = true
		}
	}
	in.mu.Unlock()

	for _, a := range acts {
		countFault(a.f.Kind)
		switch a.f.Kind {
		case KindDrop:
			dropLink(t, src, dst, fmt.Errorf("chaos: link %d->%d dropped", src, dst))
		case KindCrash:
			// Cut every link this rank hosts: peers observe the death the
			// way they would a real process crash.
			for p := 0; p < t.WorldSize(); p++ {
				if p != src {
					dropLink(t, src, p, fmt.Errorf("chaos: rank %d crashed", src))
				}
			}
		case KindPartition:
			for _, p := range in.cutPeers(a.f, src) {
				dropLink(t, src, p, fmt.Errorf("chaos: partition isolates %d from %d", src, p))
			}
		}
	}
	return delay, crashNow
}

func (in *Injector) inGroups(f *Fault, rank int) bool {
	for _, g := range f.Groups {
		for _, r := range g {
			if r == rank {
				return true
			}
		}
	}
	return false
}

// cutPeers lists the ranks on the other side of a partition from rank.
func (in *Injector) cutPeers(f *Fault, rank int) []int {
	var mine int = -1
	for gi, g := range f.Groups {
		for _, r := range g {
			if r == rank {
				mine = gi
			}
		}
	}
	if mine < 0 {
		return nil
	}
	var out []int
	for gi, g := range f.Groups {
		if gi != mine {
			out = append(out, g...)
		}
	}
	return out
}

// dropLink cuts a link observably when the transport supports it, else
// falls back to send-side injection.
func dropLink(t transport.Transport, src, dst int, cause error) {
	if d, ok := t.(linkDropper); ok {
		d.DropLink(dst, cause)
		return
	}
	t.FailLink(src, dst)
}

// chaosTransport is the Transport wrapper: Send consults the injector, so a
// faulted send sleeps or fails on the calling rank's goroutine; everything
// else delegates. The ring runs its one exchange path over it unchanged.
type chaosTransport struct {
	in    *Injector
	inner transport.Transport
}

func (c *chaosTransport) WorldSize() int    { return c.inner.WorldSize() }
func (c *chaosTransport) LocalRanks() []int { return c.inner.LocalRanks() }

func (c *chaosTransport) Send(src, dst int, payload any, timeout time.Duration) error {
	delay, crashed := c.in.beforeSend(c.inner, src, dst)
	if crashed {
		return errCrashed
	}
	if delay > 0 {
		time.Sleep(delay) //cplint:allow determinism slow-fault injects real latency; which step gets it is seeded-deterministic
	}
	return c.inner.Send(src, dst, payload, timeout)
}

func (c *chaosTransport) Recv(dst, src int, timeout time.Duration) (any, error) {
	c.in.mu.Lock()
	dead := c.in.crashed[dst]
	c.in.mu.Unlock()
	if dead {
		return nil, errCrashed
	}
	return c.inner.Recv(dst, src, timeout)
}

func (c *chaosTransport) Waiting(dst, src int) bool               { return c.inner.Waiting(dst, src) }
func (c *chaosTransport) Recycle(dst int, payload any)            { c.inner.Recycle(dst, payload) }
func (c *chaosTransport) FailLink(src, dst int)                   { c.inner.FailLink(src, dst) }
func (c *chaosTransport) HealLink(src, dst int)                   { c.inner.HealLink(src, dst) }
func (c *chaosTransport) Failures() <-chan transport.FailureEvent { return c.inner.Failures() }
func (c *chaosTransport) WireLinks() []wire.LinkStat              { return c.inner.WireLinks() }
func (c *chaosTransport) Close() error                            { return c.inner.Close() }
