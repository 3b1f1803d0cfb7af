package scheduler

// This file is the decision core of all four policies: the one place
// that decides which item an idle path carries — the next of a shared
// pending pool (GRD, PLAYOUT) or the head of the path's own fixed queue
// (RR, MIN) — when an endgame replica is launched or an in-flight
// attempt split, what a failure costs (retry budget, requeue,
// exhaustion, backoff), whether a path's circuit breaker lets it try at
// all, and the per-path bandwidth estimate that MIN deals its queues by
// and the pooled endgame sizes a split by.
//
// Over paths that can carry a byte range, the pooled policies also size
// what a path carries when they assign it (fill): the last pending
// items are water-filled across the paths by their estimates, so that
// every path ends together.
//
// Core holds no clock, no lock and no goroutine. Its callers — the live
// event loop in run and the virtual-time one in fault.Simulate — each
// call it from one loop, pass the time in, and own everything that
// touches bytes: contexts, the stall watchdog, waste accounting,
// metrics and events. Paths and items are dense indexes; every time is
// float64 seconds elapsed since the transaction started, so the same
// arithmetic runs on the wall clock and on a simulated timeline.

import (
	"math"
	"math/rand"
	"slices"
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
	// Wait: nothing to carry before Until — the path's breaker is open,
	// or the endgame's replica is not yet expected to win (gate); ask
	// again at Until, or sooner after any other path's outcome.
	Wait
	// Split: carry the tail [Off, End) of Item, which Carrier's attempt
	// was carrying; the core has already cut that attempt at Off.
	Split
	// Piece: carry the head [Off, End) of Item, which the core has just
	// divided; the rest waits on the pending pool for the next path.
	Piece
)

// Decision is what Core.Idle tells a driver to do with an idle path.
type Decision struct {
	Action Action
	Item   int     // Assign, Duplicate, Split, Piece
	Until  float64 // Wait: when to ask again
	// Probe reports that this call moved the path's breaker from open
	// to half-open: whatever the path carries next is the probe.
	Probe bool
	// Carrier is the path whose attempt a Split cut.
	Carrier int
	// Off and End bound the bytes of a piece: a Split's tail, a Piece's
	// head, or a piece waiting on the pool; End 0 is the item's end.
	Off, End int64
	// Body names the buffer a ranged path's bytes go into: a new one for
	// an attempt at a whole item, the item's for a piece of it. Off, End
	// and Body stay 0 on a path that cannot carry a range.
	Body int
}

// Success is the verdict on a transfer that finished without error.
type Success struct {
	// Won is true for the item's first completion; a replica finishing
	// after that delivered nothing and its bytes are waste.
	Won bool
	// Piece is true when the success delivered a piece of a split item
	// whose other pieces are still to come: its bytes are not waste, and
	// the item is won by the success that delivers the last piece.
	Piece bool
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

	// The estimator: MIN deals by it, the pooled policies size pieces by it.
	est     float64 // bits/s, exponentially smoothed; 0 until a pooled path's first measure
	sampled bool    // MIN: at least one transfer has been measured
	backlog int64   // MIN: bytes dealt to the path and not yet delivered

	// A ranged attempt: the bytes [off, end) it carries (end 0 is the
	// item's end) and the buffer they go into; body is 0 otherwise.
	off, end int64
	body     int
}

// coreFlight is one item's in-flight state; replicas == 0 means the
// item is pending or delivered, not in flight.
type coreFlight struct {
	replicas int
	seq      int // assignment order, for "oldest" in the GRD endgame
	// A split item: pieces counts the pieces not yet delivered, in
	// flight or waiting for a path; body is the buffer they all go
	// into. pieces is 0 for an item that was never split.
	pieces  int
	body    int
	waiting []window
}

// window is a piece of an item: bytes [off, end), end 0 the item's end.
type window struct{ off, end int64 }

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

	// split is the driver's view of its ranged attempts, nil when no
	// path can carry a range (see SetSplitter); nextBody numbers the
	// buffers ranged attempts fill.
	split    Splitter
	nextBody int

	// sizes are the items' lengths; sized reports that every one is
	// known (positive), which fill needs. lastWhole is the bytes of the
	// last item won whole, the size the gate takes for an unknown one.
	sizes     []int64
	sized     bool
	lastWhole int64

	// MIN's dealer.
	minTime bool
	next    int     // first item not yet dealt to a queue
	alpha   float64 // smoothing weight on the newest bandwidth sample
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
		minTime:     algo == MinTime,
		duplication: !opts.DisableDuplication,
		maxRetries:  opts.maxRetries(),
		backoff:     newBackoff(opts.Backoff),
		done:        make([]bool, items),
		flights:     make([]coreFlight, items),
		fails:       make([]int, items*paths),
		paths:       make([]corePath, paths),
		cancel:      make([]int, 0, paths),
		sizes:       sizes,
		sized:       !slices.Contains(sizes, 0),
		alpha:       opts.minAlpha(),
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

// SetSplitter lets the pooled policies' endgame split an in-flight
// attempt between its carrier and an idle path when both can carry a
// byte range (see Idle); s is the driver's view of its ranged attempts.
// Over paths none of which can carry a range, the core decides exactly
// as it does without one.
func (c *Core) SetSplitter(s Splitter) {
	if !c.fixed {
		c.split = s
	}
}

// ranged reports whether path p can carry a byte range.
func (c *Core) ranged(p int) bool { return c.split != nil && c.split.Ranged(p) }

// Idle answers an idle path p at time now. Under a fixed-queue policy
// it carries the head of its own queue — first try or retry alike — and
// parks when the queue is empty. Otherwise a path with an open breaker
// waits out the hold and comes back as the half-open probe; else it
// takes the first pending item it still has budget for (a piece of a
// split item only if it can carry a range), or only the head of it when
// fill says so; and when there is none it splits an in-flight attempt if
// it can (trySplit), or else duplicates an in-flight item that was never
// split — GRD picks the one with the fewest replicas, oldest assignment
// first; PLAYOUT the lowest ID, which is what gates in-order playout —
// once gate expects the replica to win, and waits until then otherwise.
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
		fl := &c.flights[it]
		if c.spent(it, p) || (fl.pieces > 0 && !c.ranged(p)) {
			continue
		}
		d.Action, d.Item = Assign, it
		w := window{0, c.sizes[it]}
		if fl.pieces > 0 {
			w = fl.waiting[0]
		}
		head := c.fill(p, it, now, w.end-w.off)
		if fl.pieces == 0 {
			if head == 0 {
				c.pending = slices.Delete(c.pending, i, i+1)
				*fl = coreFlight{replicas: 1, seq: c.nextSeq}
				c.nextSeq++
				c.carryWhole(p, it, &d)
				return d
			}
			// The item becomes one piece waiting on the pool, in a
			// buffer of its own, and is divided below.
			c.nextBody++
			*fl = coreFlight{pieces: 1, body: c.nextBody, seq: c.nextSeq, waiting: []window{w}}
			c.nextSeq++
		}
		if head > 0 {
			// The rest stays where it was on the pool, the pieces one more.
			d.Action = Piece
			fl.pieces++
			fl.waiting[0].off += head
			w.end = w.off + head
		} else {
			c.pending = slices.Delete(c.pending, i, i+1)
			fl.waiting = fl.waiting[1:]
		}
		fl.replicas++
		pp.item, pp.off, pp.end, pp.body = it, w.off, w.end, fl.body
		d.Off, d.End, d.Body = w.off, w.end, fl.body
		return d
	}
	if !c.duplication {
		return d
	}
	if c.trySplit(p, &d) {
		return d
	}
	best := -1
	for q := range c.paths {
		it := c.paths[q].item
		if it < 0 || c.spent(it, p) || c.flights[it].pieces > 0 {
			continue
		}
		if best < 0 || c.duplicateBefore(it, best) {
			best = it
		}
	}
	if best < 0 {
		return d
	}
	if until := c.gate(p, best, now); until > 0 {
		d.Action, d.Until = Wait, until
		return d
	}
	c.flights[best].replicas++
	d.Action, d.Item = Duplicate, best
	c.carryWhole(p, best, &d)
	return d
}

// fill is the pooled policies' rule for sizing what a path carries when
// it is assigned: the work left, W — the pending pool's bytes plus what
// each busy path is expected to have left of its window — ends soonest
// when every path ends together, at T* = now + W/Σ est, so idle path p
// takes the first est_p·(T* − now) bytes of the n-byte window of item it
// is about to carry, and the rest waits for the next path. It returns
// that head, or 0 for the whole window: unless every path can carry the
// rest (a range, budget left for item), every size is known, and p and
// every busy path have an estimate; when duplication is off (the
// ablation knob restores whole-item GRD); and when p's share covers the
// window or the head or the rest would not be worth a piece. Σ est
// counts the idle paths with an estimate and a closed breaker, which ask
// next.
func (c *Core) fill(p, item int, now float64, n int64) int64 {
	pp := &c.paths[p]
	if !c.duplication || !c.sized || pp.est <= 0 {
		return 0
	}
	var work, rate float64
	for q := range c.paths {
		qq := &c.paths[q]
		switch {
		case !c.ranged(q) || c.spent(item, q):
			return 0
		case qq.item >= 0:
			if qq.est <= 0 {
				return 0
			}
			end := qq.end
			if end == 0 {
				end = c.sizes[qq.item]
			}
			work += max(0, float64(end-qq.off)-qq.est/8*(now-qq.started))
			rate += qq.est
		case q == p || (qq.est > 0 && !qq.breaker.Open()):
			rate += qq.est
		}
	}
	for _, it := range c.pending {
		if c.flights[it].pieces == 0 {
			work += float64(c.sizes[it])
		}
	}
	for it := range c.flights {
		for _, w := range c.flights[it].waiting {
			work += float64(w.end - w.off)
		}
	}
	head, least := int64(work*pp.est/rate), leastPiece(pp.est)
	if head >= n || head < least || n-head < least {
		return 0
	}
	return head
}

// carryWhole puts path p on the whole of item, in a new buffer of its
// own when p can carry a range.
func (c *Core) carryWhole(p, item int, d *Decision) {
	pp := &c.paths[p]
	pp.item, pp.off, pp.end, pp.body = item, 0, 0, 0
	if c.ranged(p) {
		c.nextBody++
		pp.body, d.Body = c.nextBody, c.nextBody
	}
}

// trySplit is the pooled endgame's first choice for an idle path p that
// can carry a range and has a rate estimate: among the attempts on other
// paths with an estimate that can be cut, on items p has budget for that
// carry no duplicate, it takes the one expected to end last (under
// PLAYOUT, the lowest item) and asks the driver to cut it so that p
// carries the share est_p/(est_p+est_carrier) of the bytes the carrier
// has yet to receive. It reports false, changing nothing, when there is
// no such attempt or the tail would not be worth a piece on p.
func (c *Core) trySplit(p int, d *Decision) bool {
	pp := &c.paths[p]
	if pp.est <= 0 || !c.ranged(p) {
		return false
	}
	best, bestT := -1, 0.0
	for q := range c.paths {
		qq := &c.paths[q]
		it := qq.item
		if q == p || it < 0 || qq.body == 0 || qq.est <= 0 || c.spent(it, p) ||
			(c.flights[it].pieces == 0 && c.flights[it].replicas != 1) {
			continue
		}
		left, ok := c.split.Left(q)
		if !ok {
			continue
		}
		t := float64(left) / qq.est
		if best < 0 || (c.playout && it < c.paths[best].item) || (!c.playout && t > bestT) {
			best, bestT = q, t
		}
	}
	if best < 0 {
		return false
	}
	qq := &c.paths[best]
	at, end, ok := c.split.Cut(best, pp.est/(pp.est+qq.est), leastPiece(pp.est))
	if !ok {
		return false
	}
	fl := &c.flights[qq.item]
	if fl.pieces == 0 {
		fl.pieces, fl.body = 1, qq.body
	}
	fl.pieces++
	fl.replicas++
	qq.end = at
	pp.item, pp.off, pp.end, pp.body = qq.item, at, end, fl.body
	d.Action, d.Item, d.Carrier = Split, qq.item, best
	d.Off, d.End, d.Body = at, end, fl.body
	return true
}

// gate is the endgame's test of a replica of item on idle path p at now.
// The replica pays a request, as a piece does: it launches once own =
// size·8/est_p + minPieceTime is at most rem, the soonest a carrier is
// expected to end: left·8/est_carrier when the Splitter sees its bytes,
// else due − now (due = started + size·8/est_carrier), never less than
// now − due, since a late attempt is expected to take as long again. It
// returns 0 to launch, else due + own (the latest due): when to ask
// again. An unknown size is the last item won whole; with no size,
// estimate or ranged carrier, the replica launches as in GRD.
func (c *Core) gate(p, item int, now float64) float64 {
	size, est := c.sizes[item], c.paths[p].est
	if size == 0 {
		size = c.lastWhole
	}
	if size == 0 || est <= 0 {
		return 0
	}
	own := float64(size)*8/est + minPieceTime
	rem, due := math.Inf(1), 0.0
	for q := range c.paths {
		qq := &c.paths[q]
		if qq.item != item {
			continue
		}
		if qq.body == 0 || qq.est <= 0 {
			return 0
		}
		dq := qq.started + float64(size)*8/qq.est
		r := dq - now
		if left, ok := c.split.Left(q); ok {
			r = float64(left) * 8 / qq.est
		}
		rem, due = min(rem, max(r, now-dq)), max(due, dq)
	}
	if own <= rem || now >= due+own {
		return 0
	}
	return due + own
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
	pp := &c.paths[p]
	if pp.item >= 0 {
		c.flights[pp.item].replicas--
	}
	pp.item, pp.off, pp.end, pp.body = -1, 0, 0, 0
}

// piece reports whether path p carries a piece of item, which was split.
func (c *Core) piece(item, p int) bool {
	return c.paths[p].item == item && c.flights[item].pieces > 0
}

// Succeeded records that path p finished item without error at time
// now, having moved bytes as the transport counted them (an Item's Size
// need not be in bytes). Any success — winner or late replica — proves
// the path healthy: its failure streak resets and its breaker
// re-closes, and under a pooled policy it updates the path's estimate.
// A piece of a split item wins the item only as its last piece. Under a
// fixed-queue policy the item leaves the head of the path's queue, and
// MIN folds the transfer into its estimate.
func (c *Core) Succeeded(item, p int, bytes int64, now float64) Success {
	piece := c.piece(item, p)
	c.release(p)
	pp := &c.paths[p]
	s := Success{Closed: pp.breaker.Success()}
	pp.streak = 0
	c.observe(pp, bytes, now-pp.started)
	if c.done[item] {
		return s
	}
	if piece {
		if c.flights[item].pieces--; c.flights[item].pieces > 0 {
			s.Piece = true
			return s
		}
	}
	c.done[item] = true
	s.Won = true
	if !piece {
		c.lastWhole = bytes
	}
	s.Cancel = c.cancel[:0]
	for q := range c.paths {
		if c.paths[q].item == item {
			c.release(q)
			s.Cancel = append(s.Cancel, q)
		}
	}
	if c.fixed {
		c.queues[p] = c.queues[p][1:]
	}
	if c.minTime {
		c.sample(item, p)
	}
	return s
}

// observe folds a transfer into path p's bandwidth estimate. A pooled
// path's first measurable transfer sets it; MIN's is seeded (NewCore).
// A transfer that took no measurable time says nothing about bandwidth.
func (c *Core) observe(pp *corePath, bytes int64, seconds float64) {
	if seconds <= 0 {
		return
	}
	x := float64(bytes) * 8 / seconds
	if pp.est > 0 {
		x = c.alpha*x + (1-c.alpha)*pp.est
	}
	pp.est = x
}

// sample is MIN's dealer, run at each delivery once observe has folded
// the transfer into path p's bandwidth estimate. While
// some path has yet to produce a sample the finishing path is kept busy
// with the next item in order; the moment every path has one, all
// remaining items are placed — once, never rebalanced — each on the
// path minimising its estimated completion time. Deep queues built from
// noisy early samples are exactly why MIN underperforms under wireless
// variability. A transfer that took no measurable time still counts as
// a sample, and its path is still fed: the deal must not wait on a clock
// tick.
func (c *Core) sample(item, p int) {
	pp := &c.paths[p]
	pp.sampled = true
	pp.backlog -= c.weight(item)
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
			if t := float64(qq.backlog+c.weight(c.next)) * 8 / qq.est; t < bestT {
				best, bestT = q, t
			}
		}
		c.deal(best)
	}
}

// deal puts the next undealt item on the tail of path p's queue.
func (c *Core) deal(p int) {
	c.queues[p] = append(c.queues[p], c.next)
	c.paths[p].backlog += c.weight(c.next)
	c.next++
}

// weight is what MIN's backlog counts an item as: its size, or a byte
// when its size is unknown, so that a set of such items is dealt by
// count.
func (c *Core) weight(item int) int64 { return max(c.sizes[item], 1) }

// Failed records a genuine failure (error or stall abort, not a
// cancellation) of item on path p at time now. The path's health always
// takes the hit — breaker and backoff streak advance — but the item is
// charged, requeued or declared exhausted only while it is undelivered:
// a replica that dies after the item landed costs the item nothing. A
// failed piece of a split item waits on the pending pool for a ranged
// path. Under a fixed-queue policy the item simply stays at the head of
// p's queue, and p's budget for it is the whole budget.
func (c *Core) Failed(item, p int, now float64) Failure {
	if c.piece(item, p) {
		fl := &c.flights[item]
		fl.waiting = append(fl.waiting, window{c.paths[p].off, c.paths[p].end})
	}
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
// budget for it and fills in what follows: exhaustion — for a split item,
// on every path that can carry its pieces — or a requeue.
func (c *Core) charge(item, p int, f *Failure) {
	n := len(c.paths)
	row := c.fails[item*n : (item+1)*n]
	row[p]++
	if c.fixed {
		f.Attempts = row[p]
		f.Exhausted = row[p] >= c.maxRetries
		return
	}
	fl := &c.flights[item]
	f.Exhausted = true
	for q, k := range row {
		f.Attempts += k
		if k < c.maxRetries && (fl.pieces == 0 || c.ranged(q)) {
			f.Exhausted = false
		}
	}
	f.Everywhere = f.Exhausted
	if !f.Exhausted && (fl.pieces > 0 || fl.replicas == 0) {
		c.pending = append(c.pending, item)
		f.Requeued = true
	}
}
