package scheduler

// This file is the live side of the scheduler's path-health resilience
// layer — the answer to internal/fault's hostile edge. Three
// mechanisms, all off by default (zero Options values preserve the
// historical fail-politely behaviour):
//
//   - deterministic exponential backoff with seeded jitter between
//     retry attempts, under every policy (BackoffConfig; the delays
//     come from core.go, the live driver sits them out);
//   - a progress watchdog that aborts an attempt when no bytes move for
//     StallTimeout, which the core then treats as any other failure —
//     the only defence against silent stalls, where the path neither
//     errs nor progresses (ProgressPath; watch and checkStall, a
//     deadline the live driver's loop keeps per attempt);
//   - a per-path circuit breaker, GRD and PLAYOUT only: consecutive
//     failures eject the path from the greedy rotation, an escalating
//     cooldown holds it out, and a half-open probe readmits it
//     (BreakerConfig; the state machine is Breaker, which core.go
//     steps per path and permitplane.Cache steps per backend).
//
// Every state transition is exported through Options.Metrics and
// Options.Events so a chaos run's eventlog tells the whole story.

import (
	"context"
	"fmt"
	"math"
	"time"

	"threegol/internal/clock"
)

// ProgressPath is a Path that can report byte progress mid-transfer.
// Paths that implement it come under the stall watchdog when
// Options.StallTimeout is set; opaque paths are never watchdog-aborted
// (a timeout on a path that merely cannot report progress would
// misfire).
type ProgressPath interface {
	Path
	// TransferProgress is Transfer with a progress hook: implementations
	// call progress with the cumulative bytes moved whenever the count
	// advances. The hook must be safe for concurrent use.
	TransferProgress(ctx context.Context, item Item, progress func(total int64)) (int64, error)
}

// ItemError is the typed transaction-abort error: it carries the item,
// the path that observed the final failure, and the attempt count, so
// callers and log readers can tell what died where.
type ItemError struct {
	ItemID   int
	ItemName string
	PathName string
	Attempts int
	// Everywhere is true when the greedy scheduler exhausted the retry
	// budget on every path, not just PathName (the last one to fail).
	Everywhere bool
	Err        error
}

// Error implements error.
func (e *ItemError) Error() string {
	where := fmt.Sprintf("path %s", e.PathName)
	if e.Everywhere {
		where = fmt.Sprintf("every path (last %s)", e.PathName)
	}
	return fmt.Sprintf("scheduler: item %d (%s) failed on %s after %d attempts: %v",
		e.ItemID, e.ItemName, where, e.Attempts, e.Err)
}

// Unwrap exposes the final underlying failure to errors.Is/As.
func (e *ItemError) Unwrap() error { return e.Err }

// StallError reports a progress-watchdog abort: the path moved no bytes
// for at least Timeout, so the attempt was cancelled and the item goes
// back to the queue.
type StallError struct {
	ItemID   int
	PathName string
	Timeout  time.Duration
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("scheduler: item %d stalled on path %s (no progress for %v)",
		e.ItemID, e.PathName, e.Timeout)
}

// BackoffConfig tunes deterministic exponential backoff between retry
// attempts. The zero value disables backoff (instant retry).
type BackoffConfig struct {
	// Base is the delay before the first retry; 0 disables backoff.
	Base time.Duration
	// Max caps the exponential growth; 0 selects 32×Base.
	Max time.Duration
	// Jitter widens each delay by a uniform random fraction: the k-th
	// delay is min(Max, Base·2^k)·(1 + Jitter·U), U ∈ [0, 1) drawn from
	// the seeded stream. 0 means no jitter.
	Jitter float64
	// Seed seeds the jitter stream — no global rand, so a transaction
	// replayed with the same seed draws the same jitter sequence.
	Seed int64
}

func (c BackoffConfig) max() time.Duration {
	if c.Max > 0 {
		return c.Max
	}
	return 32 * c.Base
}

// BreakerConfig tunes the per-path circuit breaker. The zero value
// disables it. The breaker applies to the greedy policies (GRD and
// PLAYOUT) only: fixed-queue policies cannot reassign around an ejected
// path, so ejection would only add latency there.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens the breaker
	// and ejects the path from the rotation; 0 disables the breaker.
	Threshold int
	// Cooldown is how long the first opening holds the path out before
	// the half-open probe; 0 selects 500ms. Every re-opening doubles
	// the hold, up to MaxCooldown.
	Cooldown time.Duration
	// MaxCooldown caps the doubling; 0 selects 8×Cooldown.
	MaxCooldown time.Duration
}

func (c BreakerConfig) cooldown() time.Duration {
	if c.Cooldown > 0 {
		return c.Cooldown
	}
	return 500 * time.Millisecond
}

func (c BreakerConfig) maxCooldown() time.Duration {
	if c.MaxCooldown > 0 {
		return c.MaxCooldown
	}
	return 8 * c.cooldown()
}

// Breaker states: closed (healthy) → open (ejected, cooling down) →
// half-open (one probe in flight) → closed again on probe success, or
// back to open with a doubled hold on probe failure.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is one circuit breaker's state machine. It holds no clock:
// Failure names the hold an opening starts, and the caller keeps the
// instant it ends and asks Probe once that instant has passed. The zero
// value is a closed breaker.
type Breaker struct {
	state  int8
	consec int     // consecutive failures while closed
	hold   float64 // seconds the next opening holds; 0 selects the config's Cooldown
}

// Open reports whether the breaker is open: the caller waits out the
// hold before it tries again.
func (b *Breaker) Open() bool { return b.state == breakerOpen }

// Probe moves an open breaker to half-open once the caller's hold has
// ended: what the caller tries next is the probe.
func (b *Breaker) Probe() {
	if b.state == breakerOpen {
		b.state = breakerHalfOpen
	}
}

// Success records a success, which re-closes the breaker and resets the
// hold. closed reports that the breaker was not closed before.
func (b *Breaker) Success() (closed bool) {
	closed = b.state != breakerClosed
	*b = Breaker{}
	return closed
}

// Failure records a failure under cfg and reports whether it opened the
// breaker, and for how many seconds. A closed breaker opens at the
// Threshold-th consecutive failure; a breaker that is not closed — a
// failed probe — opens again at once. Each opening holds twice as long
// as the last, up to MaxCooldown, until a success resets it. A zero
// Threshold never opens.
func (b *Breaker) Failure(cfg BreakerConfig) (opened bool, hold float64) {
	if cfg.Threshold <= 0 {
		return false, 0
	}
	if b.state == breakerClosed {
		b.consec++
		if b.consec < cfg.Threshold {
			return false, 0
		}
	}
	hold = b.hold
	if hold == 0 {
		hold = cfg.cooldown().Seconds()
	}
	b.state, b.consec = breakerOpen, 0
	b.hold = math.Min(hold*2, cfg.maxCooldown().Seconds())
	return true, hold
}

// toDuration converts the decision core's float seconds to a timer's
// duration, rounding up so a timer never fires a fraction of a nanosecond
// short of the instant the core named.
func toDuration(seconds float64) time.Duration {
	return time.Duration(math.Ceil(seconds * float64(time.Second)))
}

// transfer moves a's bytes over p: through TransferRange when a carries
// a window, and reporting progress when it is not nil.
func (a *attempt) transfer(ctx context.Context, p Path, progress func(int64)) (int64, error) {
	switch {
	case a.window != nil:
		return p.(RangePath).TransferRange(ctx, a.item, a.window, progress)
	case progress != nil:
		return p.(ProgressPath).TransferProgress(ctx, a.item, progress)
	}
	return p.Transfer(ctx, a.item)
}

// watch arms the stall watchdog on attempt a of path p when StallTimeout
// is set and the path reports progress, and returns the progress hook
// that feeds it (nil when the attempt is not watched). The watchdog is a
// timer of the loop's: it fires StallTimeout after the attempt's last
// progress and cancels the attempt with a *StallError (checkStall). The
// hook only stores the instant, so the abort falls exactly StallTimeout
// after the last byte, as fault.Simulate's attempt walk has it.
func (l *loop) watch(p int, a *attempt) func(int64) {
	st := l.opts.StallTimeout
	if _, ok := l.paths[p].Path.(ProgressPath); st <= 0 || !(ok || a.window != nil) {
		return nil
	}
	a.total.Store(-1) // −1 ≠ 0: a silent connect stall trips too
	a.last.Store(int64(l.clk.Since(l.start)))
	a.watchdog = clock.AfterFunc(l.clk, st, func() { l.send(wake{p: p, att: a}) })
	return func(total int64) {
		if a.total.Swap(total) != total {
			a.last.Store(int64(l.clk.Since(l.start)))
		}
	}
}

// checkStall is the stall watchdog's timer on attempt a of path p: it
// cancels the attempt, whose context then carries the *StallError, when
// no byte has come for StallTimeout, and otherwise re-arms for
// StallTimeout after the last one. An attempt that has returned is left
// alone.
func (l *loop) checkStall(p int, a *attempt) {
	if l.paths[p].att != a {
		return
	}
	st := l.opts.StallTimeout
	idle := l.clk.Since(l.start) - time.Duration(a.last.Load())
	if idle >= st {
		a.cancel(&StallError{ItemID: a.item.ID, PathName: l.paths[p].name, Timeout: st})
		return
	}
	a.watchdog = clock.AfterFunc(l.clk, st-idle, func() { l.send(wake{p: p, att: a}) })
}
