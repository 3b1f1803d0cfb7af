// Package scheduler implements the paper's multipath transfer scheduler —
// the component at the heart of 3GOL (§4.1.1). A transaction moves M
// items (video segments, photos) over N paths (the ADSL line plus the
// admissible set Φ of 3G devices) so as to minimise total transfer time.
//
// Three policies match the paper's Fig. 6 comparison, plus the paper's
// deferred playout extension:
//
//   - Greedy (GRD): each path pulls the next unassigned item as soon as it
//     goes idle; when no items remain, an idle path duplicates the oldest
//     still-in-flight item, and the first replica to finish cancels the
//     others. Wasted bytes are bounded by (N−1)·Sm, Sm the largest item.
//     Over paths that can carry a byte range (RangePath), the last
//     pending items are divided when they are assigned, so that every
//     path ends together by its rate, and an idle path that would
//     duplicate takes the tail of an in-flight attempt that can be cut
//     instead; an item is won when its pieces are all in.
//   - RoundRobin (RR): items are dealt cyclically onto the paths up front.
//   - MinTime (MIN): each item goes to the path with the smallest
//     estimated completion time, with per-path bandwidth estimated by
//     exponential smoothing (filter parameter 0.75) seeded round-robin —
//     the estimator whose poor accuracy under wireless variability makes
//     MIN the worst performer in the paper.
//   - Playout: greedy with a head-of-line endgame — the in-order
//     delivery variant the paper leaves as future work.
//
// All four are decided in one place, the clockless Core (core.go), and
// run by one live event loop, run (below), which owns the core: it asks
// the core what each idle path carries, runs each attempt in a goroutine
// that sends it the outcome, and settles that outcome with the core.
// fault.Simulate drives the same core from the same shape of loop in
// virtual time.
package scheduler

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"threegol/internal/clock"
	"threegol/internal/obs/eventlog"
)

// Item is one unit of a transaction: an HLS segment, a photo, a file.
type Item struct {
	// ID indexes the item within its transaction (0-based, dense).
	ID int
	// Name is a diagnostic/transport label, e.g. the URI to fetch.
	Name string
	// Size is the item's size in bytes, 0 when the caller does not know
	// it. MIN deals by it (an unknown size counts as a byte), and the
	// pooled policies size pieces by it only when every item's is known;
	// GRD and RR work without it.
	Size int64
}

// Path is one transport channel: the direct ADSL route or one 3G device's
// proxy. Transfer moves a single item, blocking until done, cancelled, or
// failed; it returns the bytes actually moved (partial counts on abort).
// Implementations must honour ctx cancellation promptly — the greedy
// endgame relies on it to cancel losing replicas.
type Path interface {
	Name() string
	Transfer(ctx context.Context, item Item) (int64, error)
}

// Algo selects a scheduling policy.
type Algo int

// Scheduling policies.
const (
	Greedy Algo = iota
	RoundRobin
	MinTime
	// Playout is the paper's deferred extension (§4.1.1: "we could
	// modify the scheduler to cover also the playout phase"): greedy
	// assignment, but the endgame duplicates the head-of-line item —
	// the lowest-ID incomplete segment, i.e. the one the player is
	// blocked on — instead of the oldest-assigned one, trading a little
	// total-transfer time for smoother in-order delivery.
	Playout
)

// String implements fmt.Stringer.
func (a Algo) String() string {
	switch a {
	case Greedy:
		return "GRD"
	case RoundRobin:
		return "RR"
	case MinTime:
		return "MIN"
	case Playout:
		return "PLAYOUT"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// Options tune a transaction.
type Options struct {
	// MinAlpha is MIN's exponential smoothing weight on the newest
	// bandwidth sample. Zero selects the paper's 0.75.
	MinAlpha float64
	// InitialBandwidth seeds MIN's estimator per path (bits/s). Nil or
	// missing entries default to 1 Mbps.
	InitialBandwidth map[string]float64
	// MaxRetries is how many times a failed item is re-queued before the
	// transaction aborts. Zero selects 3.
	MaxRetries int
	// DisableDuplication turns off GRD's endgame re-assignment, whole
	// (no duplicate) and split (no tail taken from an in-flight attempt),
	// and the pieces sized at assignment with it: the ablation knob for
	// the paper's duplication design choice, which leaves whole-item GRD.
	DisableDuplication bool
	// Backoff configures deterministic exponential backoff with seeded
	// jitter between retry attempts. The zero value disables backoff
	// (instant retry, the historical behaviour).
	Backoff BackoffConfig
	// StallTimeout aborts a transfer attempt when the path reports no
	// byte progress for this long, and requeues the item. Only paths
	// implementing ProgressPath are watched; zero disables the
	// watchdog.
	StallTimeout time.Duration
	// Breaker configures the per-path circuit breaker (GRD/PLAYOUT
	// only: see BreakerConfig). The zero value disables it.
	Breaker BreakerConfig
	// Clock supplies elapsed-time measurement; nil selects the system
	// clock. Tests and virtual-time harnesses inject a fake here.
	Clock clock.Clock
	// Metrics receives per-path instrumentation (see NewMetrics); the
	// zero value records nothing. Latencies are measured on Clock.
	Metrics Metrics
	// Events, when non-nil, receives flight-recorder events: the
	// transaction root span plus every assignment, attempt, retry,
	// requeue, endgame duplicate, split or piece, and completion. The attempt span's
	// TraceContext rides the transfer context, so instrumented paths
	// (internal/transfer) extend the same trace.
	Events *eventlog.Log
	// Trace parents the transaction's root span — stitching it under a
	// caller's span (e.g. a client request). Zero starts a new trace.
	Trace eventlog.TraceContext
}

func (o Options) minAlpha() float64 {
	if o.MinAlpha <= 0 || o.MinAlpha > 1 {
		return 0.75
	}
	return o.MinAlpha
}

func (o Options) maxRetries() int {
	if o.MaxRetries <= 0 {
		return 3
	}
	return o.MaxRetries
}

// PathStats aggregates per-path activity within a Report.
type PathStats struct {
	Items int   // completed (winning) transfers
	Bytes int64 // all bytes moved, including losing replicas
}

// Report is the outcome of a transaction.
type Report struct {
	Algo    Algo
	Elapsed time.Duration
	// ItemDone[i] is the elapsed time at which item i first completed.
	ItemDone []time.Duration
	// WastedBytes counts bytes moved by replicas that lost the endgame
	// race (GRD only).
	WastedBytes int64
	// Duplicates counts endgame replica launches (GRD only).
	Duplicates int
	// Splits counts the times an item was divided: an idle path taking
	// the head of a pending item sized to its rate, or the tail of an
	// in-flight attempt (GRD and PLAYOUT over paths that can carry a byte
	// range; see RangePath). A split is not a duplicate.
	Splits int
	// PerPath maps path name to its activity.
	PerPath map[string]PathStats
}

// TotalBytes sums all bytes moved over all paths (useful bytes + waste).
func (r *Report) TotalBytes() int64 {
	var t int64
	for _, s := range r.PerPath {
		t += s.Bytes
	}
	return t
}

// Run executes one transaction: transfers every item over the given paths
// under the selected policy. It returns a Report on success. An error is
// returned when ctx is cancelled or an item exhausts its retries on the
// policy's designated path(s).
func Run(ctx context.Context, algo Algo, items []Item, paths []Path, opts Options) (*Report, error) {
	if len(paths) == 0 {
		return nil, errors.New("scheduler: no paths")
	}
	if algo < Greedy || algo > Playout {
		return nil, fmt.Errorf("scheduler: unknown algorithm %v", algo)
	}
	for i, it := range items {
		if it.ID != i {
			return nil, fmt.Errorf("scheduler: item %d has ID %d; IDs must be dense and ordered", i, it.ID)
		}
	}
	rep := &Report{
		Algo:     algo,
		ItemDone: make([]time.Duration, len(items)),
		PerPath:  make(map[string]PathStats, len(paths)),
	}
	for _, p := range paths {
		rep.PerPath[p.Name()] = PathStats{}
	}
	if len(items) == 0 {
		return rep, nil
	}
	clk := clock.Or(opts.Clock)
	start := clk.Now()
	tx := opts.Events.Begin(opts.Trace, "scheduler.transaction",
		"algo", algo.String(),
		"items", eventlog.Int(int64(len(items))),
		"paths", eventlog.Int(int64(len(paths))))
	if tx.Context().Valid() {
		// Workers parent their spans to the transaction, not the caller.
		opts.Trace = tx.Context()
	}
	if err := run(ctx, algo, items, paths, opts, rep, clk, start); err != nil {
		tx.End("outcome", "error", "error", err.Error())
		return nil, err
	}
	rep.Elapsed = clk.Since(start)
	tx.End("outcome", "ok", "elapsed_s", eventlog.Float(rep.Elapsed.Seconds()))
	return rep, nil
}

// run is the live driver of the decision core, under every policy: one
// loop, shaped like fault.Simulate's, that owns the core, the report,
// the running attempts, their windows and cancellation, and every
// path's timer. Attempts send it their outcomes, and timers — a Wait's
// Until, a backoff's end, the stall watchdog's deadline — their wakes.
// Nothing else touches its state, so nothing locks it. It returns once
// every attempt has returned, so the losers' bytes are counted.
func run(ctx context.Context, algo Algo, items []Item, paths []Path, opts Options, rep *Report, clk clock.Clock, start time.Time) error {
	l := &loop{ctx: ctx, opts: opts, rep: rep, clk: clk, start: start, items: items, left: len(items),
		paths: make([]livePath, len(paths)), outcomes: make(chan outcome, len(paths)),
		wakes: make(chan wake), quit: make(chan struct{})}
	sizes, names := make([]int64, len(items)), make([]string, len(paths))
	for i, it := range items {
		sizes[i] = it.Size
	}
	for i, p := range paths {
		lp := &l.paths[i]
		lp.Path, lp.name = p, p.Name()
		names[i] = lp.name
		if lp.rp, _ = p.(RangePath); lp.rp != nil {
			lp.cuts = lp.rp.Cuts()
		}
	}
	l.core = NewCore(algo, sizes, names, opts)
	l.core.SetSplitter(l)
	defer l.stop()
	done := ctx.Done()
	for l.dispatchAll(); (l.failed == nil && l.left > 0) || l.inflight > 0; l.dispatchAll() {
		select {
		case o := <-l.outcomes:
			l.resolve(o)
		case w := <-l.wakes: // a timer fired: re-ask the paths
			if w.att != nil {
				l.checkStall(w.p, w.att)
			} else if lp := &l.paths[w.p]; lp.seq == w.seq {
				lp.timer, lp.backoff = nil, false
			}
		case <-done:
			done = nil
			l.fail(ctx.Err())
		}
		// Settle every outcome in before asking the paths, as Simulate
		// resolves an instant's attempts before the dispatches they cause.
		for len(l.outcomes) > 0 {
			l.resolve(<-l.outcomes)
		}
	}
	return l.failed
}

// loop is run's state.
type loop struct {
	ctx   context.Context
	opts  Options
	rep   *Report
	clk   clock.Clock
	start time.Time
	items []Item
	paths []livePath
	core  *Core

	left, inflight int   // items not yet delivered, attempts not yet resolved
	failed         error // the transaction's end: an *ItemError or ctx's error

	outcomes chan outcome // one slot a path: an attempt's goroutine never waits
	wakes    chan wake
	quit     chan struct{} // closed as run returns: a late wake is dropped
}

// livePath is one path's share of the loop's state: rp is the path as a
// RangePath, nil when it cannot carry a range, and cuts its Cuts.
type livePath struct {
	Path
	name string
	rp   RangePath
	cuts bool
	att  *attempt // the running attempt, nil when idle
	// The path's timer, nil when none is armed: a Wait's wake at Until,
	// or, when backoff is set, the end of a backoff, which holds the path
	// out of dispatch. at is the instant it is armed for; seq numbers it,
	// so that the wake of a timer since replaced changes nothing.
	timer   func() bool
	at      float64
	seq     int
	backoff bool
}

// attempt is one transfer under way on a path.
type attempt struct {
	item   Item
	window *Range // on a path that can carry a range
	span   eventlog.Span
	cancel context.CancelCauseFunc
	// The stall watchdog's (see watch): the instant of the last byte
	// progress since the transaction started, the total last reported,
	// and the timer that checks them.
	last, total atomic.Int64
	watchdog    func() bool
}

// outcome is what an attempt's goroutine sends the loop when its
// transfer returns: the bytes moved, and the error, which is the cause
// the loop cancelled the attempt with — errLost, a *StallError, the
// transaction's end — whenever it did.
type outcome struct {
	p   int
	n   int64
	err error
}

// wake is a timer's message to the loop: path p's timer numbered seq
// fired, or, when att is set, the stall watchdog's on att.
type wake struct {
	p, seq int
	att    *attempt
}

// errLost cancels the replicas that lost the race to deliver an item.
var errLost = errors.New("scheduler: another replica delivered the item")

// dispatchAll asks the core about every idle path, and again after any
// of them starts an attempt: a fresh attempt is a new endgame candidate
// for a path that parked or waits.
func (l *loop) dispatchAll() {
	for started := true; started && l.failed == nil && l.left > 0; {
		started = false
		for p := range l.paths {
			started = l.dispatch(p) || started
		}
	}
}

// dispatch asks the core what idle path p carries, and starts it.
func (l *loop) dispatch(p int) bool {
	lp := &l.paths[p]
	if lp.att != nil || lp.backoff {
		return false
	}
	now := l.clk.Since(l.start).Seconds()
	d := l.core.Idle(p, now)
	if d.Probe {
		l.opts.Metrics.BreakerProbes.With(lp.name).Inc()
		l.opts.Events.Point(l.opts.Trace, "scheduler.breaker_probe", "path", lp.name)
	}
	switch d.Action {
	case Park:
		return false
	case Wait:
		// An open breaker's hold or a replica not yet expected to win:
		// ask again at Until, or after any outcome that may change that.
		l.arm(p, now, d.Until)
		return false
	}
	l.begin(p, d)
	return true
}

// begin starts the attempt that decision d gives path p.
func (l *loop) begin(p int, d Decision) {
	lp := &l.paths[p]
	ev, tc, m := l.opts.Events, l.opts.Trace, l.opts.Metrics
	a := &attempt{item: l.items[d.Item]}
	if lp.rp != nil {
		a.window = newRange(d)
	}
	m.Assignments.With(lp.name).Inc()
	id := eventlog.Int(int64(a.item.ID))
	switch d.Action {
	case Assign:
		ev.Point(tc, "scheduler.assign", "item", id, "path", lp.name)
	case Duplicate:
		l.rep.Duplicates++
		m.Duplicates.With(lp.name).Inc()
		ev.Point(tc, "scheduler.duplicate", "item", id, "path", lp.name)
	case Split:
		l.rep.Splits++
		m.Splits.Inc()
		ev.Point(tc, "scheduler.split", "item", id, "path", lp.name,
			"carrier", l.paths[d.Carrier].name, "cut", eventlog.Int(d.Off))
	case Piece:
		l.rep.Splits++
		m.Splits.Inc()
		ev.Point(tc, "scheduler.piece", "item", id, "path", lp.name,
			"off", eventlog.Int(d.Off), "end", eventlog.Int(d.End))
	}
	a.span = ev.Begin(tc, "scheduler.attempt", "item", id, "path", lp.name)
	actx, cancel := context.WithCancelCause(l.ctx)
	a.cancel = cancel
	path, progress := lp.Path, l.watch(p, a)
	lp.att = a
	l.inflight++
	go func() {
		n, err := a.transfer(eventlog.NewContext(actx, a.span.Context()), path, progress)
		if err != nil && actx.Err() != nil {
			err = context.Cause(actx)
		}
		l.outcomes <- outcome{p, n, err}
	}()
}

// resolve settles the outcome of path o.p's attempt.
func (l *loop) resolve(o outcome) {
	lp := &l.paths[o.p]
	a, name, n, err := lp.att, lp.name, o.n, o.err
	lp.att = nil
	l.inflight--
	a.cancel(nil)
	if a.watchdog != nil {
		a.watchdog()
	}
	ev, tc, m := l.opts.Events, l.opts.Trace, l.opts.Metrics
	id := eventlog.Int(int64(a.item.ID))
	elapsed := l.clk.Since(l.start)
	st := l.rep.PerPath[name]
	st.Bytes += n
	l.rep.PerPath[name] = st
	if n > 0 { // Add(0) would put an empty series in the dump
		m.Bytes.With(name).Add(n)
	}
	switch {
	case err == nil:
		s := l.core.Succeeded(a.item.ID, o.p, n, elapsed.Seconds())
		switch {
		case s.Won:
			l.left--
			l.rep.ItemDone[a.item.ID] = elapsed
			st.Items++
			l.rep.PerPath[name] = st
			m.Completed.With(name).Inc()
			m.ItemSeconds.With(name).Observe(elapsed.Seconds())
			ev.Point(tc, "scheduler.item_done", "item", id, "path", name,
				"elapsed_s", eventlog.Float(elapsed.Seconds()))
			a.span.End("outcome", "ok", "bytes", eventlog.Int(n))
			// Abort the losing replicas; their bytes are counted when
			// their outcomes come back. One settled after fail has none.
			for _, q := range s.Cancel {
				if la := l.paths[q].att; la != nil {
					la.cancel(errLost)
				}
			}
		case s.Piece:
			a.span.End("outcome", "piece", "bytes", eventlog.Int(n))
		default:
			l.waste(n)
			a.span.End("outcome", "lost_race", "bytes", eventlog.Int(n))
		}
		if s.Closed {
			m.BreakerCloses.With(name).Inc()
			ev.Point(tc, "scheduler.breaker_close", "path", name)
		}
	case l.failed != nil || l.ctx.Err() != nil:
		a.span.End("outcome", "cancelled", "bytes", eventlog.Int(n))
		l.fail(l.ctx.Err())
	case errors.Is(err, errLost):
		// The core released this path when the winner reported.
		a.span.End("outcome", "cancelled", "bytes", eventlog.Int(n))
		l.waste(n)
	default:
		a.span.End("outcome", "error", "bytes", eventlog.Int(n), "error", err.Error())
		if errors.As(err, new(*StallError)) {
			m.StallAborts.With(name).Inc()
			ev.Point(tc, "scheduler.stall", "item", id, "path", name,
				"timeout_s", eventlog.Float(l.opts.StallTimeout.Seconds()))
		}
		m.Retries.With(name).Inc()
		ev.Point(tc, "scheduler.retry", "item", id, "path", name)
		now := elapsed.Seconds()
		f := l.core.Failed(a.item.ID, o.p, now)
		if f.Opened {
			m.BreakerOpens.With(name).Inc()
			ev.Point(tc, "scheduler.breaker_open", "path", name, "cooldown_s", eventlog.Float(f.Cooldown))
		}
		switch {
		case f.Exhausted:
			ev.Point(tc, "scheduler.exhausted", "item", id, "path", name)
			l.fail(&ItemError{ItemID: a.item.ID, ItemName: a.item.Name, PathName: name,
				Attempts: f.Attempts, Everywhere: f.Everywhere, Err: err})
		case f.Requeued:
			m.Requeues.Inc()
			ev.Point(tc, "scheduler.requeue", "item", id, "path", name)
		}
		if f.Backoff > 0 {
			m.Backoffs.With(name).Inc()
			ev.Point(tc, "scheduler.backoff", "item", id, "path", name, "delay_s", eventlog.Float(f.Backoff))
			l.arm(o.p, now, now+f.Backoff)
			lp.backoff = true
		}
	}
}

func (l *loop) waste(n int64) {
	l.rep.WastedBytes += n
	if n > 0 {
		l.opts.Metrics.WastedBytes.Add(n)
	}
}

// fail ends the transaction with err, unless it has ended already, and
// cancels every running attempt.
func (l *loop) fail(err error) {
	if l.failed != nil {
		return
	}
	l.failed = err
	for _, lp := range l.paths {
		if lp.att != nil {
			lp.att.cancel(err)
		}
	}
}

// arm sets path p's timer to wake the loop at instant at, unless it is
// set for that instant already.
func (l *loop) arm(p int, now, at float64) {
	lp := &l.paths[p]
	if lp.timer != nil {
		if lp.at == at {
			return
		}
		lp.timer()
	}
	lp.seq++
	w := wake{p: p, seq: lp.seq}
	lp.at, lp.timer = at, clock.AfterFunc(l.clk, toDuration(at-now), func() { l.send(w) })
}

// send hands a timer's wake to the loop, or drops it once run returned.
func (l *loop) send(w wake) {
	select {
	case l.wakes <- w:
	case <-l.quit:
	}
}

// stop disarms the paths' timers as run returns.
func (l *loop) stop() {
	for _, lp := range l.paths {
		if lp.timer != nil {
			lp.timer()
		}
	}
	close(l.quit)
}
