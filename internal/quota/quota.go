// Package quota implements the multi-provider machinery of §6: the
// allowance estimator that converts a user's past cellular usage into a
// safe monthly/daily 3GOL budget, and the on-device usage tracker whose
// remaining allowance A(t) = 3GOLa(t) − U(t) gates advertisement.
//
// The estimator is the paper's:
//
//	F̄u(t)   = (1/τ) Σ_{s=1..τ} Fu(t−s)        (mean free capacity)
//	3GOLa(t) = F̄u(t) − α·σ̄u(t)                 (guarded allowance)
//
// with σ̄u the sample standard deviation of free capacity over the same
// window and α a tunable guard. The paper finds τ=5, α=4 lets ≈65% of
// free capacity be used with expected overrun under one day per month.
package quota

import (
	"fmt"
	"sync"

	"threegol/internal/stats"
)

// Estimator computes the guarded 3GOL allowance from usage history.
type Estimator struct {
	// Tau is the look-back window in months; 0 selects the paper's 5.
	Tau int
	// Alpha is the guard multiplier on the free-capacity standard
	// deviation; 0 selects the paper's 4. (Alpha is never negative.)
	Alpha float64
}

func (e Estimator) tau() int {
	if e.Tau <= 0 {
		return 5
	}
	return e.Tau
}

func (e Estimator) alpha() float64 {
	if e.Alpha <= 0 {
		return 4
	}
	return e.Alpha
}

// MonthlyAllowance returns 3GOLa(t) in bytes given the free capacity
// (cap − usage, bytes) of the τ months preceding t, most recent last.
// Fewer than τ months of history yields a conservative 0 (no onloading
// until enough history accrues). Negative estimates clamp to 0.
func (e Estimator) MonthlyAllowance(freeHistory []float64) float64 {
	tau := e.tau()
	if len(freeHistory) < tau {
		return 0
	}
	window := freeHistory[len(freeHistory)-tau:]
	mean := stats.Mean(window)
	sd := stats.Std(window)
	allowance := mean - e.alpha()*sd
	if allowance < 0 {
		return 0
	}
	return allowance
}

// DailyAllowance divides the monthly allowance into a daily budget (the
// paper's "daily safe volume", computed over a 30-day month).
func (e Estimator) DailyAllowance(freeHistory []float64) float64 {
	return e.MonthlyAllowance(freeHistory) / 30
}

// EvalResult summarises an estimator back-test over a population.
type EvalResult struct {
	// UtilizedFraction is the fraction of truly-free capacity the
	// estimator made available to 3GOL (the paper reports ≈65% at τ=5,
	// α=4).
	UtilizedFraction float64
	// OverrunDaysPerMonth is the expected number of days per user-month
	// on which consuming the allowance would overrun the cap.
	OverrunDaysPerMonth float64
	// Months is the number of user-months evaluated.
	Months int
}

// Evaluate back-tests the estimator over a population's free-capacity
// series: series[u][m] is user u's free capacity (bytes) in month m.
// For every month with at least τ predecessors it compares the granted
// allowance with the month's actual free capacity: allowance beyond the
// actual free capacity is an overrun, prorated into days under uniform
// daily consumption.
func (e Estimator) Evaluate(series [][]float64) EvalResult {
	var usable, free float64
	var overrunDays float64
	months := 0
	tau := e.tau()
	for _, hist := range series {
		for m := tau; m < len(hist); m++ {
			allowance := e.MonthlyAllowance(hist[:m])
			actual := hist[m]
			if actual < 0 {
				actual = 0
			}
			free += actual
			months++
			if allowance <= 0 {
				continue
			}
			if allowance <= actual {
				usable += allowance
				continue
			}
			// Allowance exceeds the month's true free capacity: the user
			// overruns the cap once cumulative 3GOL use passes `actual`.
			// Under uniform daily spend (allowance/30 per day), the
			// overrun covers the final 30·(1−actual/allowance) days.
			usable += actual
			overrunDays += 30 * (1 - actual/allowance)
		}
	}
	res := EvalResult{Months: months}
	if free > 0 {
		res.UtilizedFraction = usable / free
	}
	if months > 0 {
		res.OverrunDaysPerMonth = overrunDays / float64(months)
	}
	return res
}

// Tracker is the on-device daily quota accountant: it holds the daily
// allowance 3GOLa(t)/30 and the bytes already onloaded today, exposing
// A(t) plus the advertisement gate.
type Tracker struct {
	mu        sync.Mutex
	allowance int64 // bytes per day
	used      int64 // bytes used today
	days      int   // days elapsed (for diagnostics)
}

// NewTracker creates a tracker with the given daily allowance in bytes.
func NewTracker(dailyAllowance int64) *Tracker {
	if dailyAllowance < 0 {
		dailyAllowance = 0
	}
	return &Tracker{allowance: dailyAllowance}
}

// Available returns A(t) = allowance − used, floored at 0.
func (t *Tracker) Available() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.used >= t.allowance {
		return 0
	}
	return t.allowance - t.used
}

// ShouldAdvertise reports whether the device may announce itself (A(t) >
// 0) — the discovery.Beacon gate of the multi-provider mode.
func (t *Tracker) ShouldAdvertise() bool { return t.Available() > 0 }

// Use records n onloaded bytes (the proxy.Server OnBytes hook).
func (t *Tracker) Use(n int64) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.used += n
}

// StartNewDay resets the daily counter (midnight rollover) and sets a
// possibly updated allowance.
func (t *Tracker) StartNewDay(dailyAllowance int64) {
	if dailyAllowance < 0 {
		dailyAllowance = 0
	}
	t.mu.Lock()
	t.used = 0
	t.allowance = dailyAllowance
	t.days++
	t.mu.Unlock()
}

// String implements fmt.Stringer.
func (t *Tracker) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("quota(%d/%d bytes used)", t.used, t.allowance)
}
