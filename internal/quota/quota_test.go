package quota

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"threegol/internal/stats"
)

func TestMonthlyAllowanceFormula(t *testing.T) {
	e := Estimator{Tau: 3, Alpha: 2}
	hist := []float64{100, 200, 300} // mean 200, sd 100
	got := e.MonthlyAllowance(hist)
	want := 200 - 2*100.0
	if got != want {
		t.Errorf("allowance = %v, want %v", got, want)
	}
}

func TestAllowanceClampsAtZero(t *testing.T) {
	e := Estimator{Tau: 2, Alpha: 10}
	if got := e.MonthlyAllowance([]float64{10, 1000}); got != 0 {
		t.Errorf("high-variance allowance = %v, want 0 (guard dominates)", got)
	}
}

func TestAllowanceNeedsHistory(t *testing.T) {
	e := Estimator{} // τ=5
	if got := e.MonthlyAllowance([]float64{100, 100}); got != 0 {
		t.Errorf("allowance with 2 months = %v, want 0", got)
	}
}

func TestAllowanceUsesOnlyLastTauMonths(t *testing.T) {
	e := Estimator{Tau: 2, Alpha: 0.0001}
	// Early garbage months must be ignored.
	got := e.MonthlyAllowance([]float64{1e12, 0, 500, 500})
	if math.Abs(got-500) > 1 {
		t.Errorf("allowance = %v, want ≈500 (window = last 2 months)", got)
	}
}

func TestDailyAllowance(t *testing.T) {
	e := Estimator{Tau: 2, Alpha: 1e-9}
	daily := e.DailyAllowance([]float64{600, 600})
	if math.Abs(daily-20) > 0.01 {
		t.Errorf("daily = %v, want 20 (600/30)", daily)
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	e := Estimator{}
	if e.tau() != 5 || e.alpha() != 4 {
		t.Errorf("defaults τ=%d α=%v, want 5 and 4", e.tau(), e.alpha())
	}
}

// Property: allowance is never negative and never exceeds the window max.
func TestAllowanceBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		hist := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Keep magnitudes physical (bytes per month): summing values
			// near MaxFloat64 overflows the mean, which no real usage
			// series can.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e15 {
				hist = append(hist, math.Abs(x))
			}
		}
		e := Estimator{Tau: 3, Alpha: 1}
		a := e.MonthlyAllowance(hist)
		if a < 0 {
			return false
		}
		if len(hist) >= 3 {
			max := 0.0
			for _, x := range hist[len(hist)-3:] {
				if x > max {
					max = x
				}
			}
			return a <= max+1e-9
		}
		return a == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvaluateStablePopulation(t *testing.T) {
	// Users with perfectly stable free capacity: sd=0, allowance=mean,
	// so ~100% utilisation and zero overruns.
	series := make([][]float64, 10)
	for u := range series {
		hist := make([]float64, 12)
		for m := range hist {
			hist[m] = 600e6
		}
		series[u] = hist
	}
	e := Estimator{}
	res := e.Evaluate(series)
	if res.UtilizedFraction < 0.99 {
		t.Errorf("stable population utilisation = %v, want ≈1", res.UtilizedFraction)
	}
	if res.OverrunDaysPerMonth != 0 {
		t.Errorf("stable population overruns = %v, want 0", res.OverrunDaysPerMonth)
	}
	if res.Months != 10*(12-5) {
		t.Errorf("months = %d, want 70", res.Months)
	}
}

func TestEvaluateVolatilePopulationTradesUtilisationForSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mkSeries := func() [][]float64 {
		series := make([][]float64, 200)
		for u := range series {
			hist := make([]float64, 18)
			base := 200e6 + rng.Float64()*800e6
			for m := range hist {
				v := base * (0.5 + rng.Float64()) // ±50% monthly wobble
				hist[m] = v
			}
			series[u] = hist
		}
		return series
	}
	series := mkSeries()
	guarded := Estimator{Alpha: 4}.Evaluate(series)
	aggressive := Estimator{Alpha: 0.001}.Evaluate(series)
	if guarded.OverrunDaysPerMonth >= aggressive.OverrunDaysPerMonth {
		t.Errorf("guard α=4 overruns (%v) should be below α≈0 (%v)",
			guarded.OverrunDaysPerMonth, aggressive.OverrunDaysPerMonth)
	}
	if guarded.UtilizedFraction >= aggressive.UtilizedFraction {
		t.Errorf("guard α=4 utilisation (%v) should be below α≈0 (%v)",
			guarded.UtilizedFraction, aggressive.UtilizedFraction)
	}
	if guarded.OverrunDaysPerMonth > 1.5 {
		t.Errorf("α=4 overrun days = %v, want ≲1 (paper's operating point)",
			guarded.OverrunDaysPerMonth)
	}
}

func TestTrackerLifecycle(t *testing.T) {
	tr := NewTracker(1000)
	if !tr.ShouldAdvertise() {
		t.Error("fresh tracker should advertise")
	}
	tr.Use(400)
	if got := tr.Available(); got != 600 {
		t.Errorf("Available = %d, want 600", got)
	}
	tr.Use(700) // overshoot
	if got := tr.Available(); got != 0 {
		t.Errorf("Available after overshoot = %d, want 0", got)
	}
	if tr.ShouldAdvertise() {
		t.Error("exhausted tracker must not advertise")
	}
	if tr.used != 1100 {
		t.Errorf("Used = %d, want 1100", tr.used)
	}
	tr.StartNewDay(2000)
	if got := tr.Available(); got != 2000 {
		t.Errorf("Available after rollover = %d, want 2000", got)
	}
	if !tr.ShouldAdvertise() {
		t.Error("tracker should advertise after rollover")
	}
}

func TestTrackerIgnoresNonPositiveUse(t *testing.T) {
	tr := NewTracker(100)
	tr.Use(0)
	tr.Use(-50)
	if tr.used != 0 {
		t.Errorf("Used = %d, want 0", tr.used)
	}
}

func TestTrackerNegativeAllowanceClamps(t *testing.T) {
	tr := NewTracker(-5)
	if tr.Available() != 0 || tr.ShouldAdvertise() {
		t.Error("negative allowance should behave as zero")
	}
	tr.StartNewDay(-1)
	if tr.Available() != 0 {
		t.Error("negative rollover allowance should clamp to zero")
	}
}

func TestPaperOperatingPointUtilisation(t *testing.T) {
	// A population shaped like the paper's MNO dataset (§6): most users
	// far below cap with moderate month-to-month variation. τ=5, α=4
	// should land utilisation in the broad vicinity of the paper's ≈65%.
	rng := rand.New(rand.NewSource(7))
	dist := stats.LogNormalFromMoments(600e6, 250e6)
	series := make([][]float64, 500)
	for u := range series {
		base := dist.Sample(rng)
		hist := make([]float64, 18)
		for m := range hist {
			wobble := stats.TruncNormal{Mean: 1, Std: 0.12, Lo: 0.6, Hi: 1.4}.Sample(rng)
			hist[m] = base * wobble
		}
		series[u] = hist
	}
	res := Estimator{}.Evaluate(series)
	if res.UtilizedFraction < 0.4 || res.UtilizedFraction > 0.9 {
		t.Errorf("utilisation = %v, want within [0.4, 0.9] (paper ≈0.65)", res.UtilizedFraction)
	}
	if res.OverrunDaysPerMonth > 1 {
		t.Errorf("overrun days/month = %v, want <1 (paper's finding)", res.OverrunDaysPerMonth)
	}
}

// --- edge cases around the history boundary ---

func TestAllowanceExactlyAtTauBoundary(t *testing.T) {
	e := Estimator{Tau: 5, Alpha: 4}
	flat := []float64{600, 600, 600, 600, 600}
	// τ−1 months: conservative zero, no onloading yet.
	if got := e.MonthlyAllowance(flat[:4]); got != 0 {
		t.Errorf("allowance with τ−1 months = %v, want 0", got)
	}
	// Exactly τ months: the formula engages (sd=0, so allowance = mean).
	if got := e.MonthlyAllowance(flat); got != 600 {
		t.Errorf("allowance with exactly τ months = %v, want 600", got)
	}
	if got := e.DailyAllowance(flat[:4]); got != 0 {
		t.Errorf("daily allowance with τ−1 months = %v, want 0", got)
	}
}

func TestAllowanceEmptyAndNilHistory(t *testing.T) {
	e := Estimator{}
	if got := e.MonthlyAllowance(nil); got != 0 {
		t.Errorf("allowance with nil history = %v, want 0", got)
	}
	if got := e.MonthlyAllowance([]float64{}); got != 0 {
		t.Errorf("allowance with empty history = %v, want 0", got)
	}
}

// A zero-usage user's free capacity equals the cap every month: the
// estimator grants the whole cap (sd=0 ⇒ no guard deduction) and the
// daily budget is cap/30 — the allowance can never exceed the cap
// boundary itself.
func TestZeroUsageUserGetsWholeCapAndNoMore(t *testing.T) {
	const cap = 500 * 1024 * 1024
	hist := make([]float64, 12)
	for i := range hist {
		hist[i] = cap
	}
	e := Estimator{Tau: 5, Alpha: 4}
	if got := e.MonthlyAllowance(hist); got != cap {
		t.Errorf("zero-usage monthly allowance = %v, want the %v cap", got, float64(cap))
	}
	if got := e.DailyAllowance(hist); math.Abs(got-cap/30.0) > 1e-6 {
		t.Errorf("zero-usage daily allowance = %v, want cap/30 = %v", got, cap/30.0)
	}
}

// Months where usage exceeded the cap surface as zero free capacity, not
// negative: the allowance clamps at the cap boundary from below too.
func TestAllowanceWithOverCapMonths(t *testing.T) {
	e := Estimator{Tau: 3, Alpha: 1}
	// Two exhausted months drag the mean below α·σ̄ — clamps to 0.
	if got := e.MonthlyAllowance([]float64{0, 0, 300}); got != 0 {
		t.Errorf("allowance after exhausted months = %v, want 0", got)
	}
	// All-exhausted history: nothing to grant.
	if got := e.MonthlyAllowance([]float64{0, 0, 0}); got != 0 {
		t.Errorf("allowance with no free capacity ever = %v, want 0", got)
	}
}

// The tracker at exact exhaustion: using precisely the allowance flips
// the advertisement gate off, with no wrap-around below zero.
func TestTrackerExactExhaustionBoundary(t *testing.T) {
	tr := NewTracker(1000)
	tr.Use(999)
	if !tr.ShouldAdvertise() {
		t.Error("1 byte left: should still advertise")
	}
	tr.Use(1)
	if tr.Available() != 0 || tr.ShouldAdvertise() {
		t.Errorf("exact exhaustion: available = %d, advertise = %v, want 0/false",
			tr.Available(), tr.ShouldAdvertise())
	}
	tr.Use(1) // past the boundary: still floored at 0
	if tr.Available() != 0 {
		t.Errorf("over-use available = %d, want 0", tr.Available())
	}
	tr.StartNewDay(1000)
	if tr.Available() != 1000 || tr.used != 0 {
		t.Errorf("rollover: available = %d used = %d, want 1000/0", tr.Available(), tr.used)
	}
}
