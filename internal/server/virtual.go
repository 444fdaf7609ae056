package server

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/comm/transport"
	"repro/internal/model"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// The costs a virtual replay charges, in the order of magnitude of the tiny
// in-process engine: every executor command, every prefilled prompt token
// and every decoded row. They are not calibrated against any host.
const (
	virtualCommandCost = 200 * time.Microsecond
	virtualTokenCost   = 50 * time.Microsecond
	virtualRowCost     = 100 * time.Microsecond
)

// virtualClock is a time source that moves only when advanced. A submitting
// goroutine may read it while the driving one advances it, hence the mutex.
type virtualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *virtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *virtualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// costExec implements executor without any ranks, on a virtual clock: every
// command advances clk by perCmd, plus perTok per prefilled token and perRow
// per decoded row. It tracks sequence lengths, hands out inert prefix
// handles, and answers with token ids that are a pure function of (token,
// position), so what the scheduler does over it depends on nothing else.
type costExec struct {
	clk                    *virtualClock
	perCmd, perTok, perRow time.Duration
	vocab                  int
	epoch                  uint64
	lens                   map[int]int
	pins                   map[*transformer.PrefixKV]int // live prefix handle -> tokens pinned
	out                    []int                         // DecodeNext's reply
}

func newCostExec(clk *virtualClock, perCmd, perTok, perRow time.Duration, vocab int) *costExec {
	return &costExec{
		clk: clk, perCmd: perCmd, perTok: perTok, perRow: perRow, vocab: vocab, epoch: 1,
		lens: map[int]int{}, pins: map[*transformer.PrefixKV]int{},
	}
}

func (e *costExec) sample(token, pos int) int { return (token + pos + 1) % e.vocab }

func (e *costExec) PrefillNext(seq int, tokens []int, _ model.Variant) (int, error) {
	pos := e.lens[seq]
	e.lens[seq] = pos + len(tokens)
	e.clk.advance(e.perCmd + time.Duration(len(tokens))*e.perTok)
	return e.sample(tokens[len(tokens)-1], pos+len(tokens)-1), nil
}

func (e *costExec) DecodeNext(seqs, tokens []int) ([]int, error) {
	e.out = e.out[:0]
	for i, seq := range seqs {
		e.out = append(e.out, e.sample(tokens[i], e.lens[seq]))
		e.lens[seq]++
	}
	e.clk.advance(e.perCmd + time.Duration(len(seqs))*e.perRow)
	return e.out, nil
}

func (e *costExec) SeqLen(seq int) int { return e.lens[seq] }

func (e *costExec) AdoptPrefix(seq int, pre *transformer.PrefixKV) error {
	n, ok := e.pins[pre]
	if !ok {
		return errors.New("server: adopt of a prefix handle this epoch never detached")
	}
	e.lens[seq] = n
	e.clk.advance(e.perCmd)
	return nil
}

func (e *costExec) DetachPrefix(seq, upTo int) (*transformer.PrefixKV, error) {
	if upTo > e.lens[seq] {
		return nil, fmt.Errorf("server: detach bound %d past sequence %d's length %d", upTo, seq, e.lens[seq])
	}
	h := &transformer.PrefixKV{}
	e.pins[h] = upTo
	e.clk.advance(e.perCmd)
	return h, nil
}

func (e *costExec) Drop(seq int) {
	delete(e.lens, seq)
	e.clk.advance(e.perCmd)
}

func (e *costExec) Rebuild() error {
	e.lens = map[int]int{}
	e.pins = map[*transformer.PrefixKV]int{}
	e.epoch++
	e.clk.advance(e.perCmd)
	return nil
}

func (e *costExec) Epoch() uint64 { return e.epoch }

// Failures never fires: nothing behind a costExec can fail.
func (e *costExec) Failures() <-chan transport.FailureEvent { return nil }

// VirtualReplay is a trace replayed through the scheduler in virtual time.
type VirtualReplay struct {
	Results    []workload.RequestResult // one per trace event, indexed by event id
	DurationMs float64                  // from the trace's origin to the last release
	Batch      BatchStats
	Reuse      ReuseStats
}

// ReplayVirtual runs a cp-trace/v2 through the real scheduling policy in
// virtual time: a Manual scheduler over costExec at the virtual costs above,
// serving the model.Tiny shape under model.Auto with the default budgets and
// the trace's cohorts registered. Arrivals follow cploadgen -replay: turn 0
// of a session arrives at its AtUs, turn n+1 GapUs after turn n completes,
// and the session is released after its last turn. The driver steps until
// the scheduler is idle, then moves the clock to the next arrival, so the
// result is a pure function of the trace.
func ReplayVirtual(tr *workload.Trace) (*VirtualReplay, error) {
	if err := workload.ValidateTrace(tr); err != nil {
		return nil, err
	}
	origin := time.Unix(0, 0)
	clk := &virtualClock{t: origin}
	mc := model.Tiny()
	s := newScheduler(newCostExec(clk, virtualCommandCost, virtualTokenCost, virtualRowCost, mc.VocabSize),
		mc, nil, clk.Now, SchedulerConfig{Variant: model.Auto, Manual: true, Cohorts: tr.Spec.CohortNames()})
	defer s.Close()

	type turn struct { // a trace event arriving at at, served by r once enqueued
		at time.Time
		ev workload.TraceEvent
		r  *request
	}
	turns := map[int][]workload.TraceEvent{}
	var due []turn // arrived or arriving, not yet enqueued; ordered by (at, event id)
	for _, ev := range tr.Events {
		turns[ev.Session] = append(turns[ev.Session], ev)
		if ev.Turn == 0 { // validated: in arrival order
			due = append(due, turn{at: origin.Add(time.Duration(ev.AtUs) * time.Microsecond), ev: ev})
		}
	}
	out := &VirtualReplay{Results: make([]workload.RequestResult, len(tr.Events))}
	// finish records a turn's outcome, then queues the session's next turn or
	// releases it after its last.
	finish := func(u turn, err error) {
		res := workload.RequestResult{ID: u.ev.ID, Cohort: u.ev.Cohort, Status: 200}
		end := clk.Now()
		if err != nil {
			res.Status = statusFor(err)
		} else {
			end = u.r.lastStep
			// A turn that arrived while a step ran was enqueued when the
			// step ended; its wait from arrival counts toward its TTFT.
			res.TTFTMs = u.r.ttftMs + msOf(u.r.start.Sub(u.at))
			res.ITLMs, res.OutputTokens = u.r.ttitMs, len(u.r.tokens)
		}
		res.E2EMs = msOf(end.Sub(u.at))
		out.Results[u.ev.ID] = res
		evs := turns[u.ev.Session]
		if u.ev.Turn+1 == len(evs) {
			s.Release(u.ev.Session)
			return
		}
		next := turn{at: end.Add(time.Duration(evs[u.ev.Turn+1].GapUs) * time.Microsecond), ev: evs[u.ev.Turn+1]}
		i := sort.Search(len(due), func(i int) bool {
			return due[i].at.After(next.at) || due[i].at.Equal(next.at) && due[i].ev.ID > next.ev.ID
		})
		due = slices.Insert(due, i, next)
	}

	var running []turn
	for {
		for len(due) > 0 && !due[0].at.After(clk.Now()) {
			u := due[0]
			due = due[1:]
			var err error
			if u.r, err = s.newGenerate(u.ev.Session, u.ev.Prompt, u.ev.MaxTokens, RequestOptions{Cohort: u.ev.Cohort}); err == nil {
				err = s.enqueue(u.r)
			}
			if err != nil {
				finish(u, err)
				continue
			}
			running = append(running, u)
		}
		_, stepped := s.Step()
		left := running[:0]
		for _, u := range running {
			select {
			case <-u.r.done:
				finish(u, u.r.err)
			default:
				left = append(left, u)
			}
		}
		running = left
		switch {
		case stepped:
		case len(due) > 0:
			clk.advance(max(0, due[0].at.Sub(clk.Now())))
		case len(running) > 0:
			return nil, fmt.Errorf("server: virtual replay stalled with %d requests in flight", len(running))
		default:
			out.DurationMs = msOf(clk.Now().Sub(origin))
			out.Batch, out.Reuse = s.BatchStats(), s.Reuse()
			return out, nil
		}
	}
}

func msOf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
