package fault

// Virtual-time chaos simulation. The live scheduler (internal/scheduler)
// is real-time and goroutine-concurrent, so its outputs are not
// bit-stable across runs — fine for the prototype path, fatal for the
// fleet engine's byte-identical-across-worker-counts contract. Simulate
// is the bridge: a single-threaded discrete-event driver of the same
// decision core (scheduler.Core) the live scheduler runs — item
// selection and pieces, the endgame's duplicates and splits, retry
// budgets, requeue, backoff and the circuit breaker are the core's — played
// against a fault Plan on its float64-seconds timeline. This file owns
// what the core does not: the event loop on a simclock.Queue, how long
// an attempt takes under the plan (including the stall watchdog), and
// byte and waste accounting. No wall clock, no global rand, no
// goroutines: same config in, same report out, bit for bit.

import (
	"fmt"
	"math"

	"threegol/internal/scheduler"
	"threegol/internal/simclock"
)

// SimPath describes one path in a chaos simulation.
type SimPath struct {
	Name string
	// Rate is the path's throughput in bytes per second of clean air
	// (time outside every fault window).
	Rate float64
	// Ranged marks a path that can carry a byte range of an item, as a
	// transfer.DownloadPath can: the core may size a piece for it when
	// it assigns one, and the endgame may split its attempts.
	Ranged bool
}

// SimConfig drives Simulate.
type SimConfig struct {
	Paths []SimPath
	Items []int64 // item sizes in bytes
	Plan  *Plan
	// Policy is the scheduler configuration under test. Simulate runs
	// the Greedy policy and reads MaxRetries, DisableDuplication,
	// Backoff, StallTimeout and Breaker, with the live scheduler's
	// defaults; durations are virtual time on the plan's timeline.
	Policy scheduler.Options
}

// SimPathStats aggregates one path's activity in a SimReport.
type SimPathStats struct {
	Items        int   `json:"items"`
	Bytes        int64 `json:"bytes"`
	Failures     int   `json:"failures"`
	Stalls       int   `json:"stalls"`
	BreakerOpens int   `json:"breaker_opens"`
}

// SimReport is the outcome of one simulated chaos transaction.
type SimReport struct {
	// Completed counts items delivered; Delivered[i] counts item i's
	// winning completions (exactly-once delivery ⇔ every entry is 1).
	Completed int   `json:"completed"`
	Delivered []int `json:"delivered"`
	// Elapsed is the virtual time at which the transaction resolved.
	Elapsed float64 `json:"elapsed_s"`
	// DuplicateWaste counts bytes moved by replicas cancelled after
	// losing the endgame race, cumulative over the whole transaction.
	DuplicateWaste int64 `json:"duplicate_waste_bytes"`
	// MaxCompletionWaste is the largest loser waste charged to any one
	// item's completion — the quantity §4.1.1 bounds by (N−1)·Sm: at
	// the instant an item completes, at most N−1 paths carried a losing
	// replica, each ≤ Sm bytes in. (The cumulative DuplicateWaste can
	// exceed that bound whenever requeues open a second endgame.)
	MaxCompletionWaste int64 `json:"max_completion_waste_bytes"`
	// FailureWaste counts bytes abandoned by failed or stall-aborted
	// attempts (unbounded in principle: the price of a hostile edge).
	FailureWaste int64 `json:"failure_waste_bytes"`
	Requeues     int   `json:"requeues"`
	Duplicates   int   `json:"duplicates"`
	// Splits counts items divided, at assignment or by an endgame
	// split, which only ranged paths make.
	Splits       int                     `json:"splits,omitempty"`
	StallAborts  int                     `json:"stall_aborts"`
	BreakerOpens int                     `json:"breaker_opens"`
	PerPath      map[string]SimPathStats `json:"per_path"`
	// Failed is non-empty when some item exhausted its budget on every
	// path and the transaction aborted.
	Failed string `json:"failed,omitempty"`
}

// attempt outcomes inside the simulation.
const (
	attemptOK = iota
	attemptKilled
	attemptStalled
)

// walkAttempt plays one transfer attempt against the plan: from t0,
// bytes flow at rate through clean air, freeze through stall windows
// (aborting at t+StallTimeout when the watchdog is armed and the freeze
// outlasts it), and die at the opening edge of a blackout/depart/reset
// window.
func walkAttempt(plan *Plan, target string, rate float64, size int64, t0, stallTimeout float64) (end float64, bytes int64, out int) {
	t := t0
	var moved float64
	for {
		if _, ok := plan.ActiveAt(target, t, Blackout, Depart, Reset); ok {
			return t, int64(moved), attemptKilled
		}
		if w, ok := plan.ActiveAt(target, t, Stall); ok {
			if stallTimeout > 0 && w.End-t >= stallTimeout {
				return t + stallTimeout, int64(moved), attemptStalled
			}
			t = w.End
			continue
		}
		next := plan.NextDisruption(target, t)
		finish := t + (float64(size)-moved)/rate
		if finish <= next {
			return finish, size, attemptOK
		}
		moved += rate * (next - t)
		t = next
	}
}

// cleanBytes reports how many bytes an attempt started at t0 had moved
// by tc (a cancellation instant strictly before its natural end).
func cleanBytes(plan *Plan, target string, rate float64, size int64, t0, tc float64) int64 {
	t := t0
	var moved float64
	for t < tc {
		if _, ok := plan.ActiveAt(target, t, Blackout, Depart, Reset); ok {
			break
		}
		if w, ok := plan.ActiveAt(target, t, Stall); ok {
			t = math.Min(w.End, tc)
			continue
		}
		next := math.Min(plan.NextDisruption(target, t), tc)
		span := next - t
		if need := (float64(size) - moved) / rate; need <= span {
			moved = float64(size)
			break
		}
		moved += rate * span
		t = next
	}
	return int64(moved)
}

// ----- event queue -----

const (
	evIdle = iota
	evResolve
)

type simEvent struct {
	kind int
	path int
	att  *simAttempt
}

type simAttempt struct {
	item      int
	off, end  int64 // the bytes of the item it carries
	start     float64
	bytes     int64 // bytes at natural resolution
	out       int
	cancelled bool
}

type simState struct {
	cfg   SimConfig
	core  *scheduler.Core
	stall float64 // watchdog timeout, seconds; 0 = off
	rep   *SimReport

	events simclock.Queue[simEvent]

	// running[p] is path p's attempt in progress, nil when idle.
	running []*simAttempt
	// earliestIdle[p] is the backoff or revocation horizon: dispatches
	// before it are ignored (whatever set it already queued a wake
	// there, unless it is Forever).
	earliestIdle []float64

	// lossByItem accumulates each item's completion-time loser waste
	// (winner-cancelled replicas plus simultaneous-finish ties); its
	// maximum is the §4.1.1-bounded MaxCompletionWaste.
	lossByItem []int64

	now     float64 // the instant being dispatched, for the Splitter
	done    bool
	elapsed float64
}

// Simulate runs one chaos transaction to completion (or abort) in
// virtual time and returns its report.
func Simulate(cfg SimConfig) (*SimReport, error) {
	if len(cfg.Paths) == 0 {
		return nil, fmt.Errorf("fault: simulate needs at least one path")
	}
	n := len(cfg.Paths)
	names := make([]string, n)
	for i, p := range cfg.Paths {
		if !(p.Rate > 0) || math.IsInf(p.Rate, 1) {
			return nil, fmt.Errorf("fault: path %q has rate %v, want positive and finite", p.Name, p.Rate)
		}
		names[i] = p.Name
	}
	s := &simState{
		cfg:   cfg,
		core:  scheduler.NewCore(scheduler.Greedy, cfg.Items, names, cfg.Policy),
		stall: cfg.Policy.StallTimeout.Seconds(),
		rep: &SimReport{
			Delivered: make([]int, len(cfg.Items)),
			PerPath:   make(map[string]SimPathStats, n),
		},
		running:      make([]*simAttempt, n),
		earliestIdle: make([]float64, n),
		lossByItem:   make([]int64, len(cfg.Items)),
	}
	s.core.SetSplitter(s)
	for p := range cfg.Paths {
		s.rep.PerPath[cfg.Paths[p].Name] = SimPathStats{}
		s.events.Push(0, simEvent{kind: evIdle, path: p})
	}
	if len(cfg.Items) == 0 {
		return s.rep, nil
	}

	for s.events.Len() > 0 && !s.done && s.rep.Failed == "" {
		t, e := s.events.Pop()
		switch e.kind {
		case evIdle:
			s.dispatch(e.path, t)
		case evResolve:
			s.resolve(e.path, e.att, t)
		}
	}
	if !s.done && s.rep.Failed == "" {
		// Every path parked with work still undone: cannot happen while
		// budgets remain (the exhaustion check fires first), so treat it
		// as a simulator invariant violation rather than mis-reporting.
		return nil, fmt.Errorf("fault: simulation deadlocked with %d/%d items done",
			s.rep.Completed, len(cfg.Items))
	}
	s.rep.Elapsed = s.elapsed
	for _, w := range s.lossByItem {
		if w > s.rep.MaxCompletionWaste {
			s.rep.MaxCompletionWaste = w
		}
	}
	return s.rep, nil
}

// wakeAll re-dispatches every idle path at time t: the core's state
// changed, so a parked path may have something to carry now.
func (s *simState) wakeAll(t float64) {
	for p, att := range s.running {
		if att == nil {
			s.events.Push(t, simEvent{kind: evIdle, path: p})
		}
	}
}

// dispatch asks the core what idle path p carries at time t and starts
// the attempt.
func (s *simState) dispatch(p int, t float64) {
	if s.running[p] != nil || t < s.earliestIdle[p] {
		return // busy, or backing off with a wake queued at the horizon
	}
	sp := s.cfg.Paths[p]
	if w, ok := s.cfg.Plan.ActiveAt(sp.Name, t, Revoke); ok {
		// No permit, no new attempt: sit the window out like a backoff
		// (a Forever window parks the path for good).
		s.earliestIdle[p] = w.End
		if !math.IsInf(w.End, 1) {
			s.events.Push(w.End, simEvent{kind: evIdle, path: p})
		}
		return
	}
	s.now = t
	d := s.core.Idle(p, t)
	switch d.Action {
	case scheduler.Park:
		return // a wake will retry when state changes
	case scheduler.Wait:
		s.events.Push(d.Until, simEvent{kind: evIdle, path: p})
		return
	case scheduler.Duplicate:
		s.rep.Duplicates++
	case scheduler.Split, scheduler.Piece:
		s.rep.Splits++
	}
	end := d.End
	if end == 0 {
		end = s.cfg.Items[d.Item]
	}
	s.start(p, &simAttempt{item: d.Item, off: d.Off, end: end, start: t})
	// A fresh in-flight item is a new endgame candidate for parked
	// paths.
	s.wakeAll(t)
}

// start walks attempt att on path p from its start and queues its
// resolution.
func (s *simState) start(p int, att *simAttempt) {
	sp := s.cfg.Paths[p]
	var end float64
	end, att.bytes, att.out = walkAttempt(s.cfg.Plan, sp.Name, sp.Rate, att.end-att.off, att.start, s.stall)
	s.running[p] = att
	s.events.Push(end, simEvent{kind: evResolve, path: p, att: att})
}

// held is how many bytes path p's running attempt has moved by now.
func (s *simState) held(p int) int64 {
	att, sp := s.running[p], s.cfg.Paths[p]
	return cleanBytes(s.cfg.Plan, sp.Name, sp.Rate, att.end-att.off, att.start, s.now)
}

// Ranged, Left and Cut make simState the core's Splitter.
func (s *simState) Ranged(p int) bool { return s.cfg.Paths[p].Ranged }

func (s *simState) Left(p int) (int64, bool) {
	att := s.running[p]
	if att == nil {
		return 0, false
	}
	return att.end - att.off - s.held(p), true
}

// Cut re-walks path p's attempt from its start to the cut: the bytes
// before it are the same, and it resolves when it reaches the cut.
func (s *simState) Cut(p int, share float64, least int64) (int64, int64, bool) {
	att := s.running[p]
	if att == nil {
		return 0, 0, false
	}
	at, ok := scheduler.SplitAt(att.off+s.held(p), att.end, share, least)
	if !ok {
		return 0, 0, false
	}
	att.cancelled = true // its queued resolution is for the old end
	s.start(p, &simAttempt{item: att.item, off: att.off, end: at, start: att.start})
	return at, att.end, true
}

// resolve settles path p's attempt at its natural end time t.
func (s *simState) resolve(p int, att *simAttempt, t float64) {
	if att.cancelled {
		return // already settled at the winner's completion
	}
	name := s.cfg.Paths[p].Name
	s.running[p] = nil
	st := s.rep.PerPath[name]
	st.Bytes += att.bytes

	if att.out == attemptOK {
		if res := s.core.Succeeded(att.item, p, att.bytes, t); res.Won {
			s.rep.Delivered[att.item]++
			s.rep.Completed++
			st.Items++
			// Cancel the losing replicas: account their partial bytes
			// as duplicate waste and free their paths now.
			for _, q := range res.Cancel {
				r, loser := s.running[q], s.cfg.Paths[q]
				r.cancelled = true
				s.running[q] = nil
				rb := cleanBytes(s.cfg.Plan, loser.Name, loser.Rate, r.end-r.off, r.start, t)
				lst := s.rep.PerPath[loser.Name]
				lst.Bytes += rb
				s.rep.PerPath[loser.Name] = lst
				s.rep.DuplicateWaste += rb
				s.lossByItem[att.item] += rb
			}
			if s.rep.Completed == len(s.cfg.Items) {
				s.done = true
				s.elapsed = t
			}
		} else if !res.Piece {
			// Simultaneous finish: the earlier event won; ours is waste.
			s.rep.DuplicateWaste += att.bytes
			s.lossByItem[att.item] += att.bytes
		}
		s.rep.PerPath[name] = st
		if !s.done {
			s.events.Push(t, simEvent{kind: evIdle, path: p})
			s.wakeAll(t)
		}
		return
	}

	// Failure (killed or stall-aborted).
	st.Failures++
	if att.out == attemptStalled {
		st.Stalls++
		s.rep.StallAborts++
	}
	s.rep.FailureWaste += att.bytes
	f := s.core.Failed(att.item, p, t)
	if f.Opened {
		st.BreakerOpens++
		s.rep.BreakerOpens++
	}
	s.rep.PerPath[name] = st
	if f.Exhausted {
		s.rep.Failed = fmt.Sprintf("item %d failed on every path (last %s) after %d attempts",
			att.item, name, f.Attempts)
		s.elapsed = t
		return
	}
	if f.Requeued {
		s.rep.Requeues++
	}
	s.earliestIdle[p] = t + f.Backoff
	s.events.Push(t+f.Backoff, simEvent{kind: evIdle, path: p})
	s.wakeAll(t)
}
