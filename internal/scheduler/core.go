package scheduler

// This file is the decision core of all four policies: the one place
// that decides which item an idle path carries — the next of a shared
// pending pool (GRD, PLAYOUT) or the head of the path's own fixed queue
// (RR, MIN) — when an endgame replica is launched, what a failure costs
// (retry budget, requeue, exhaustion, backoff), whether a path's
// circuit breaker lets it try at all, and, for MIN, the per-path
// bandwidth estimate the queues are dealt by.
//
// Core holds no clock, no lock and no goroutine. Its callers — the live
// goroutine-per-path driver in run and the virtual-time event loop in
// fault.Simulate — serialise calls, pass the time in, and own
// everything that touches bytes: contexts, the stall watchdog,
// waste accounting, metrics and events. Paths and items are dense
// indexes; every time is float64 seconds elapsed since the transaction
// started, so the same arithmetic runs on the wall clock and on a
// simulated timeline.

import (
	"math"
	"math/rand"
)

// Action is the core's answer to an idle path.
type Action int

// Answers to Core.Idle.
const (
	// Park: nothing this path may carry right now; ask again after any
	// other path's outcome changes the state.
	Park Action = iota
	// Assign: carry Item — taken off the pending pool, or the head of
	// the path's own queue under a fixed-queue policy.
	Assign
	// Duplicate: carry Item as an endgame replica of an in-flight item.
	Duplicate
	// Wait: the path's breaker is open; ask again at Until.
	Wait
)

// Decision is what Core.Idle tells a driver to do with an idle path.
type Decision struct {
	Action Action
	Item   int     // Assign, Duplicate
	Until  float64 // Wait: when the half-open probe unlocks
	// Probe reports that this call moved the path's breaker from open
	// to half-open: whatever the path carries next is the probe.
	Probe bool
}

// Success is the verdict on a transfer that finished without error.
type Success struct {
	// Won is true for the item's first completion; a replica finishing
	// after that delivered nothing and its bytes are waste.
	Won bool
	// Cancel lists the paths still carrying a replica of the item the
	// winner just delivered. The core has already released them; the
	// driver aborts their attempts. Valid until the next call.
	Cancel []int
	// Closed reports that the success re-closed a half-open breaker.
	Closed bool
}

// Failure is the verdict on a genuine transfer failure.
type Failure struct {
	// Backoff is how long the path sits out before it next asks Idle,
	// growing with the path's failure streak; 0 when backoff is off, and
	// 0 on an Exhausted verdict — the transaction is over, nobody waits.
	Backoff float64
	// Opened reports that the failure opened the path's breaker, to be
	// held for Cooldown.
	Opened   bool
	Cooldown float64
	// Requeued: no other replica carries the item, so it went back on
	// the pending pool for a path with budget left. Never set under a
	// fixed-queue policy: the item stays at the head of its queue and
	// nothing was reassigned.
	Requeued bool
	// Exhausted: every path that may carry the item has spent its retry
	// budget on it, Attempts failures in all; the transaction cannot
	// complete. Everywhere tells which paths those are: all of them, or
	// under a fixed-queue policy only the one the item was dealt to.
	Exhausted  bool
	Everywhere bool
	Attempts   int
}

// backoff computes retry delays: exponential in the failure streak,
// capped, widened by jitter drawn from a stream seeded per transaction
// (no global rand, so a replay draws the same sequence).
type backoff struct {
	base, max, jitter float64
	rng               *rand.Rand
}

func newBackoff(cfg BackoffConfig) backoff {
	b := backoff{base: cfg.Base.Seconds(), max: cfg.max().Seconds(), jitter: cfg.Jitter}
	if b.base > 0 && b.jitter > 0 {
		b.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return b
}

// delay is the sit-out after a path's k-th consecutive failure
// (0-based): min(max, base·2^k)·(1 + jitter·U), U ∈ [0, 1).
func (b *backoff) delay(k int) float64 {
	if b.base <= 0 {
		return 0
	}
	d := b.base
	for i := 0; i < k && d < b.max; i++ {
		d *= 2
	}
	d = math.Min(d, b.max)
	if b.rng != nil {
		d += b.jitter * b.rng.Float64() * d
	}
	return d
}

// corePath is one path's share of the state. A path carries at most one
// attempt at a time, so an item's replica set is the set of paths whose
// item field names it.
type corePath struct {
	item    int     // item being carried, −1 when idle
	started float64 // when Idle last answered the path: the start of what it carries
	streak  int     // consecutive failures, for backoff growth

	breaker Breaker
	until   float64 // breaker open: when the half-open probe unlocks

	// MIN's estimator.
	est     float64 // bits/s, exponentially smoothed
	sampled bool    // at least one transfer has been measured
	backlog int64   // bytes dealt to the path and not yet delivered
}

// coreFlight is one item's in-flight state; replicas == 0 means the
// item is pending or delivered, not in flight.
type coreFlight struct {
	replicas int
	seq      int // assignment order, for "oldest" in the GRD endgame
}

// Core is the decision state of one transaction under any policy.
type Core struct {
	playout bool
	// fixed marks the fixed-queue policies (RR, MIN): path p carries only
	// what queues[p] holds, in order, and the head stays until delivered.
	// The pending pool, the endgame and the breaker are out of play — a
	// policy that cannot reassign gains nothing from ejecting a path.
	fixed       bool
	duplication bool
	maxRetries  int
	backoff     backoff
	breaker     BreakerConfig // zero (off) under a fixed-queue policy

	pending []int
	queues  [][]int
	done    []bool
	flights []coreFlight
	fails   []int // [item·len(paths)+path] genuine failures charged
	paths   []corePath
	nextSeq int
	cancel  []int // backing store for Success.Cancel

	// MIN: sizes is nil under every other policy.
	sizes []int64
	next  int     // first item not yet dealt to a queue
	alpha float64 // smoothing weight on the newest bandwidth sample
}

// NewCore returns the decision state for a transaction of len(sizes)
// items over len(names) paths under algo, reading MaxRetries,
// DisableDuplication, Backoff, Breaker, MinAlpha and InitialBandwidth
// from opts. sizes feed MIN's backlog; names only resolve
// InitialBandwidth.
func NewCore(algo Algo, sizes []int64, names []string, opts Options) *Core {
	items, paths := len(sizes), len(names)
	c := &Core{
		playout:     algo == Playout,
		fixed:       algo == RoundRobin || algo == MinTime,
		duplication: !opts.DisableDuplication,
		maxRetries:  opts.maxRetries(),
		backoff:     newBackoff(opts.Backoff),
		done:        make([]bool, items),
		flights:     make([]coreFlight, items),
		fails:       make([]int, items*paths),
		paths:       make([]corePath, paths),
		cancel:      make([]int, 0, paths),
	}
	for p := range c.paths {
		c.paths[p] = corePath{item: -1}
	}
	if !c.fixed {
		c.breaker = opts.Breaker
		c.pending = make([]int, items)
		for i := range c.pending {
			c.pending[i] = i
		}
		return c
	}
	c.queues = make([][]int, paths)
	if algo == RoundRobin {
		for it := range sizes {
			c.queues[it%paths] = append(c.queues[it%paths], it)
		}
		return c
	}
	c.sizes, c.alpha = sizes, opts.minAlpha()
	for p, name := range names {
		c.paths[p].est = 1e6
		if v := opts.InitialBandwidth[name]; v > 0 {
			c.paths[p].est = v
		}
	}
	// The first round seeds the estimator: one item per path, in order.
	for p := 0; p < paths && c.next < items; p++ {
		c.deal(p)
	}
	return c
}

// spent reports whether path p has used up its retry budget for item.
func (c *Core) spent(item, p int) bool {
	return c.fails[item*len(c.paths)+p] >= c.maxRetries
}

// Idle answers an idle path p at time now. Under a fixed-queue policy
// it carries the head of its own queue — first try or retry alike — and
// parks when the queue is empty. Otherwise a path with an open breaker
// waits out the hold and comes back as the half-open probe; else it
// takes the first pending item it still has budget for, and when there
// is none it duplicates an in-flight item — GRD picks the one with the
// fewest replicas, oldest assignment first; PLAYOUT the lowest ID,
// which is what gates in-order playout.
func (c *Core) Idle(p int, now float64) Decision {
	var d Decision
	pp := &c.paths[p]
	pp.started = now
	if c.fixed {
		if len(c.queues[p]) > 0 {
			pp.item = c.queues[p][0]
			c.flights[pp.item].replicas = 1
			d.Action, d.Item = Assign, pp.item
		}
		return d
	}
	if pp.breaker.Open() {
		if now < pp.until {
			return Decision{Action: Wait, Until: pp.until}
		}
		pp.breaker.Probe()
		d.Probe = true
	}
	for i, it := range c.pending {
		if c.spent(it, p) {
			continue
		}
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		c.flights[it] = coreFlight{replicas: 1, seq: c.nextSeq}
		c.nextSeq++
		pp.item = it
		d.Action, d.Item = Assign, it
		return d
	}
	if !c.duplication {
		return d
	}
	best := -1
	for q := range c.paths {
		it := c.paths[q].item
		if it < 0 || c.spent(it, p) {
			continue
		}
		if best < 0 || c.duplicateBefore(it, best) {
			best = it
		}
	}
	if best < 0 {
		return d
	}
	c.flights[best].replicas++
	pp.item = best
	d.Action, d.Item = Duplicate, best
	return d
}

// duplicateBefore orders endgame candidates.
func (c *Core) duplicateBefore(a, b int) bool {
	if c.playout {
		return a < b
	}
	fa, fb := c.flights[a], c.flights[b]
	if fa.replicas != fb.replicas {
		return fa.replicas < fb.replicas
	}
	return fa.seq < fb.seq
}

// release takes path p off whatever it carries. A replica the winner
// already cancelled carries nothing by the time its driver reports.
func (c *Core) release(p int) {
	if it := c.paths[p].item; it >= 0 {
		c.flights[it].replicas--
		c.paths[p].item = -1
	}
}

// Succeeded records that path p finished item without error at time
// now, having moved bytes as the transport counted them (an Item's Size
// need not be in bytes). Any success — winner or late replica — proves
// the path healthy: its failure streak resets and its breaker
// re-closes. Under a fixed-queue policy the item leaves the head of the
// path's queue, and MIN folds the transfer into its estimate.
func (c *Core) Succeeded(item, p int, bytes int64, now float64) Success {
	c.release(p)
	pp := &c.paths[p]
	s := Success{Closed: pp.breaker.Success()}
	pp.streak = 0
	if c.done[item] {
		return s
	}
	c.done[item] = true
	s.Won = true
	s.Cancel = c.cancel[:0]
	for q := range c.paths {
		if c.paths[q].item == item {
			c.paths[q].item = -1
			s.Cancel = append(s.Cancel, q)
		}
	}
	c.flights[item].replicas = 0
	if c.fixed {
		c.queues[p] = c.queues[p][1:]
	}
	if c.sizes != nil {
		c.sample(item, p, bytes, now-pp.started)
	}
	return s
}

// sample is MIN's estimator and dealer, run at each delivery: fold the
// measured transfer into path p's bandwidth estimate, then deal. While
// some path has yet to produce a sample the finishing path is kept busy
// with the next item in order; the moment every path has one, all
// remaining items are placed — once, never rebalanced — each on the
// path minimising its estimated completion time. Deep queues built from
// noisy early samples are exactly why MIN underperforms under wireless
// variability. A transfer that took no measurable time says nothing
// about bandwidth, but the path still counts as sampled and is still
// fed: the deal must not wait on a clock tick.
func (c *Core) sample(item, p int, bytes int64, seconds float64) {
	pp := &c.paths[p]
	if seconds > 0 {
		pp.est = c.alpha*(float64(bytes)*8/seconds) + (1-c.alpha)*pp.est
	}
	pp.sampled = true
	pp.backlog -= c.sizes[item]
	if c.next == len(c.sizes) {
		return
	}
	for q := range c.paths {
		if !c.paths[q].sampled {
			c.deal(p)
			return
		}
	}
	for c.next < len(c.sizes) {
		best, bestT := 0, math.Inf(1)
		for q := range c.paths {
			qq := &c.paths[q]
			if t := float64(qq.backlog+c.sizes[c.next]) * 8 / qq.est; t < bestT {
				best, bestT = q, t
			}
		}
		c.deal(best)
	}
}

// deal puts the next undealt item on the tail of path p's queue.
func (c *Core) deal(p int) {
	c.queues[p] = append(c.queues[p], c.next)
	c.paths[p].backlog += c.sizes[c.next]
	c.next++
}

// Failed records a genuine failure (error or stall abort, not a
// cancellation) of item on path p at time now. The path's health always
// takes the hit — breaker and backoff streak advance — but the item is
// charged, requeued or declared exhausted only while it is undelivered:
// a replica that dies after the item landed costs the item nothing.
// Under a fixed-queue policy the item simply stays at the head of p's
// queue, and p's budget for it is the whole budget.
func (c *Core) Failed(item, p int, now float64) Failure {
	c.release(p)
	pp := &c.paths[p]
	var f Failure
	if f.Opened, f.Cooldown = pp.breaker.Failure(c.breaker); f.Opened {
		pp.until = now + f.Cooldown
	}
	if !c.done[item] {
		c.charge(item, p, &f)
	}
	if !f.Exhausted {
		f.Backoff = c.backoff.delay(pp.streak)
	}
	pp.streak++
	return f
}

// charge books one failure of an undelivered item against path p's
// budget for it and fills in what follows: exhaustion, or a requeue.
func (c *Core) charge(item, p int, f *Failure) {
	n := len(c.paths)
	row := c.fails[item*n : (item+1)*n]
	row[p]++
	if c.fixed {
		f.Attempts = row[p]
		f.Exhausted = row[p] >= c.maxRetries
		return
	}
	f.Exhausted = true
	for _, k := range row {
		f.Attempts += k
		if k < c.maxRetries {
			f.Exhausted = false
		}
	}
	f.Everywhere = f.Exhausted
	if !f.Exhausted && c.flights[item].replicas == 0 {
		c.pending = append(c.pending, item)
		f.Requeued = true
	}
}
