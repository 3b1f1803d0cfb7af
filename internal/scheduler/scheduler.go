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
// run by one live loop, run (below): a goroutine per path that asks the
// core what to carry and reports back how it went. fault.Simulate drives
// the same core in virtual time.
package scheduler

import (
	"context"
	"errors"
	"fmt"
	"sync"
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

// tracker serialises completion bookkeeping shared by all policies.
type tracker struct {
	mu    sync.Mutex
	rep   *Report
	clk   clock.Clock
	start time.Time
	opts  Options
	left  int
}

func newTracker(rep *Report, clk clock.Clock, start time.Time, n int, opts Options) *tracker {
	return &tracker{rep: rep, clk: clk, start: start, opts: opts, left: n}
}

// complete records the delivery of item over pathName, exactly once per
// item: the core names one winner.
func (t *tracker) complete(item Item, pathName string, bytes int64) {
	t.mu.Lock()
	t.addBytesLocked(pathName, bytes)
	t.left--
	elapsed := t.clk.Since(t.start)
	t.rep.ItemDone[item.ID] = elapsed
	st := t.rep.PerPath[pathName]
	st.Items++
	t.rep.PerPath[pathName] = st
	t.mu.Unlock()
	t.opts.Metrics.Completed.With(pathName).Inc()
	t.opts.Metrics.ItemSeconds.With(pathName).Observe(elapsed.Seconds())
	t.opts.Events.Point(t.opts.Trace, "scheduler.item_done",
		"item", eventlog.Int(int64(item.ID)), "path", pathName,
		"elapsed_s", eventlog.Float(elapsed.Seconds()))
}

// addBytes accounts bytes moved on a path without completing anything
// (aborted replicas, failed attempts).
func (t *tracker) addBytes(pathName string, bytes int64) {
	t.mu.Lock()
	t.addBytesLocked(pathName, bytes)
	t.mu.Unlock()
}

func (t *tracker) addBytesLocked(pathName string, bytes int64) {
	st := t.rep.PerPath[pathName]
	st.Bytes += bytes
	t.rep.PerPath[pathName] = st
	if bytes > 0 { // Add(0) would put an empty series in the dump
		t.opts.Metrics.Bytes.With(pathName).Add(bytes)
	}
}

// remaining reports how many items have not yet completed.
func (t *tracker) remaining() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.left
}

func (t *tracker) addWaste(bytes int64) {
	t.mu.Lock()
	t.rep.WastedBytes += bytes
	t.mu.Unlock()
	if bytes > 0 {
		t.opts.Metrics.WastedBytes.Add(bytes)
	}
}

func (t *tracker) addDuplicate(pathName string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rep.Duplicates++
	t.opts.Metrics.Duplicates.With(pathName).Inc()
}

func (t *tracker) addSplit() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rep.Splits++
	t.opts.Metrics.Splits.Inc()
}

// run is the live driver of the decision core, under every policy: one
// goroutine per path asks the core what to carry, runs the attempt
// against the real transport, and reports the outcome back. The core
// decides; this loop owns the goroutines, the lock that serialises
// calls into the core, contexts and replica cancellation, byte and
// waste accounting, metrics and events.
func run(ctx context.Context, algo Algo, items []Item, paths []Path, opts Options, rep *Report, clk clock.Clock, start time.Time) error {
	trk := newTracker(rep, clk, start, len(items), opts)
	sizes := make([]int64, len(items))
	for i, it := range items {
		sizes[i] = it.Size
	}
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = p.Name()
	}
	split := newLiveSplitter(paths)

	var (
		mu   sync.Mutex
		cond = sync.NewCond(&mu)
		core = NewCore(algo, sizes, names, opts)
		// cancels[p] aborts path p's current (or, harmlessly, latest)
		// attempt; the winner of an item calls it on the losing replicas.
		cancels = make([]context.CancelFunc, len(paths))
		failed  error
	)
	core.SetSplitter(split) // its windows are read and written under mu
	now := func() float64 { return clk.Since(start).Seconds() }
	// sitOut holds its caller, which holds mu, out for d seconds or until
	// the transaction ends; early, any broadcast ends it, as
	// fault.Simulate's wakeAll re-asks a waiting path. run waits for
	// timers: none outlives the transaction.
	var timers sync.WaitGroup
	sitOut := func(d float64, early bool) {
		fired := false
		timers.Add(1)
		stop := clock.AfterFunc(clk, toDuration(d), func() {
			defer timers.Done()
			mu.Lock()
			fired = true
			cond.Broadcast()
			mu.Unlock()
		})
		for !fired && failed == nil && trk.remaining() > 0 {
			cond.Wait()
			if early {
				break
			}
		}
		if stop() {
			timers.Done()
		}
	}
	g := newErrGroup(ctx)
	// Wake all cond waiters when the group context dies (parent cancel or
	// a worker error) so they can exit.
	stopWake := context.AfterFunc(g.ctx, func() {
		mu.Lock()
		if failed == nil {
			failed = g.ctx.Err()
		}
		cond.Broadcast()
		mu.Unlock()
	})
	defer stopWake()

	for pi, p := range paths {
		pi, name, p := pi, names[pi], p
		g.go_(func(ctx context.Context) error {
			ev, tc, m := trk.opts.Events, trk.opts.Trace, trk.opts.Metrics
			for {
				mu.Lock() //3golvet:allow locksafe — condition-variable protocol; cond.Wait needs the raw mutex
				var d Decision
				for {
					if failed != nil {
						mu.Unlock()
						return failed
					}
					if trk.remaining() == 0 {
						mu.Unlock()
						return nil
					}
					d = core.Idle(pi, now())
					if d.Probe {
						m.BreakerProbes.With(name).Inc()
						ev.Point(tc, "scheduler.breaker_probe", "path", name)
					}
					if d.Action == Wait {
						// An open breaker's hold or a replica not yet
						// expected to win: ask again at Until, or once
						// another path's outcome may have changed that.
						sitOut(d.Until-now(), true)
						continue
					}
					if d.Action != Park {
						break
					}
					cond.Wait()
				}
				tctx, cancel := context.WithCancel(ctx)
				cancels[pi] = cancel
				item := items[d.Item]
				var window *Range
				if split.paths[pi] != nil {
					window = newRange(d)
					split.windows[pi] = window
				}
				switch d.Action {
				case Duplicate:
					trk.addDuplicate(name)
				case Split, Piece:
					trk.addSplit()
				}
				mu.Unlock()
				m.Assignments.With(name).Inc()
				switch d.Action {
				case Assign:
					ev.Point(tc, "scheduler.assign",
						"item", eventlog.Int(int64(item.ID)), "path", name)
				case Duplicate:
					ev.Point(tc, "scheduler.duplicate",
						"item", eventlog.Int(int64(item.ID)), "path", name)
				case Split:
					ev.Point(tc, "scheduler.split",
						"item", eventlog.Int(int64(item.ID)), "path", name,
						"carrier", names[d.Carrier], "cut", eventlog.Int(d.Off))
				case Piece:
					ev.Point(tc, "scheduler.piece",
						"item", eventlog.Int(int64(item.ID)), "path", name,
						"off", eventlog.Int(d.Off), "end", eventlog.Int(d.End))
				}
				sp := ev.Begin(tc, "scheduler.attempt",
					"item", eventlog.Int(int64(item.ID)), "path", name)

				n, err, stalled := runAttempt(eventlog.NewContext(tctx, sp.Context()), p, item, window, trk)
				// Record whether *our replica* was cancelled before we
				// release the context (cancel() would make tctx.Err()
				// non-nil unconditionally). A stall abort cancels only
				// runAttempt's child context, so it lands in the genuine-
				// failure branch below and the item is requeued.
				replicaCancelled := tctx.Err() != nil
				cancel()

				var backoff float64
				mu.Lock() //3golvet:allow locksafe — outcome bookkeeping unlocks manually on the abort path
				split.windows[pi] = nil
				switch {
				case err == nil:
					s := core.Succeeded(item.ID, pi, n, now())
					switch {
					case s.Won:
						trk.complete(item, name, n)
						sp.End("outcome", "ok", "bytes", eventlog.Int(n))
						// Abort losing replicas; their partial bytes are
						// accounted when their Transfer returns.
						for _, q := range s.Cancel {
							cancels[q]()
						}
					case s.Piece:
						trk.addBytes(name, n)
						sp.End("outcome", "piece", "bytes", eventlog.Int(n))
					default:
						trk.addBytes(name, n)
						trk.addWaste(n)
						sp.End("outcome", "lost_race", "bytes", eventlog.Int(n))
					}
					if s.Closed {
						m.BreakerCloses.With(name).Inc()
						ev.Point(tc, "scheduler.breaker_close", "path", name)
					}
					cond.Broadcast()
				case replicaCancelled && ctx.Err() == nil:
					// Cancelled because another replica won: waste. The
					// core released this path when the winner reported.
					sp.End("outcome", "cancelled", "bytes", eventlog.Int(n))
					trk.addBytes(name, n)
					trk.addWaste(n)
					cond.Broadcast()
				case ctx.Err() != nil:
					sp.End("outcome", "cancelled", "bytes", eventlog.Int(n))
					trk.addBytes(name, n)
					mu.Unlock()
					return ctx.Err()
				default:
					// Genuine transfer failure.
					sp.End("outcome", "error", "bytes", eventlog.Int(n), "error", err.Error())
					trk.addBytes(name, n)
					if stalled {
						m.StallAborts.With(name).Inc()
						ev.Point(tc, "scheduler.stall",
							"item", eventlog.Int(int64(item.ID)), "path", name,
							"timeout_s", eventlog.Float(opts.StallTimeout.Seconds()))
					}
					m.Retries.With(name).Inc()
					ev.Point(tc, "scheduler.retry",
						"item", eventlog.Int(int64(item.ID)), "path", name)
					f := core.Failed(item.ID, pi, now())
					if f.Opened {
						m.BreakerOpens.With(name).Inc()
						ev.Point(tc, "scheduler.breaker_open",
							"path", name, "cooldown_s", eventlog.Float(f.Cooldown))
					}
					switch {
					case f.Exhausted:
						failed = &ItemError{ItemID: item.ID, ItemName: item.Name, PathName: name,
							Attempts: f.Attempts, Everywhere: f.Everywhere, Err: err}
						ev.Point(tc, "scheduler.exhausted",
							"item", eventlog.Int(int64(item.ID)), "path", name)
					case f.Requeued:
						m.Requeues.Inc()
						ev.Point(tc, "scheduler.requeue",
							"item", eventlog.Int(int64(item.ID)), "path", name)
					}
					backoff = f.Backoff
					cond.Broadcast()
				}
				if backoff > 0 {
					m.Backoffs.With(name).Inc()
					ev.Point(tc, "scheduler.backoff",
						"item", eventlog.Int(int64(item.ID)), "path", name,
						"delay_s", eventlog.Float(backoff))
					sitOut(backoff, false)
				}
				mu.Unlock()
			}
		})
	}
	err := g.wait()
	timers.Wait()
	return err
}

// errGroup is a minimal errgroup built on the stdlib (module is
// dependency-free): first error wins, wait returns it.
type errGroup struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once
	err    error
}

func newErrGroup(parent context.Context) *errGroup {
	ctx, cancel := context.WithCancel(parent)
	return &errGroup{ctx: ctx, cancel: cancel}
}

func (g *errGroup) go_(fn func(context.Context) error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(g.ctx); err != nil {
			g.once.Do(func() {
				g.err = err
				g.cancel()
			})
		}
	}()
}

func (g *errGroup) wait() error {
	g.wg.Wait()
	g.cancel()
	return g.err
}
