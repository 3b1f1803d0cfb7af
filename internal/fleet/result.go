package fleet

import (
	"threegol/internal/diurnal"
	"threegol/internal/obs"
	"threegol/internal/obs/eventlog"
	"threegol/internal/stats"
)

// speedup sketch layout: [1, 33) in 1/32-wide bins covers everything a
// 256 kbps floor line with two HSPA+ phones can reach (ceiling ≈ ×20)
// at a resolution far below the anchors the evaluation quotes.
const (
	speedupLo   = 1
	speedupHi   = 33
	speedupBins = 1024
)

// Result is the fleet's Mergeable accumulator: counters, the speedup
// ECDF sketch, and the per-5-minute-bin load series, one per shard,
// folded in shard order by MapReduce.
type Result struct {
	// Homes, Viewers, Sessions and BoostedSessions count the
	// population and its activity over the whole run.
	Homes           int64
	Viewers         int64
	Sessions        int64
	BoostedSessions int64
	// Days is the simulated horizon (identical across shards).
	Days int
	// TotalBytes is the video volume requested; OnloadedBytes the part
	// carried by 3G; BudgetBytes the granted allowance (budget × days,
	// summed over homes) — Onloaded ≤ Budget always.
	TotalBytes    float64
	OnloadedBytes float64
	BudgetBytes   float64
	// DSLSeconds and BoostSeconds are total video latency over DSL
	// alone versus with budgeted onloading.
	DSLSeconds   float64
	BoostSeconds float64
	// BaseMobileDailyBytes is the phones' own cellular demand per day,
	// summed over homes — the base of the traffic-increase aggregates.
	BaseMobileDailyBytes float64
	// Speedups sketches the per-home-day DSL/boost latency ratio
	// (the Fig. 11(a) CDF at fleet scale).
	Speedups *stats.Sketch
	// Budgeted and Unlimited are the onloaded cellular load folded
	// onto a 24-hour day (the Fig. 11(b) pair at fleet scale).
	Budgeted  *LoadBins
	Unlimited *LoadBins
	// BackhaulMbps is the covering towers' total backhaul, scaled to
	// the population (identical across shards).
	BackhaulMbps float64
	// metrics holds the engine's obs instruments when Config.Metrics is
	// set; the merged registry is exposed via MetricsRegistry.
	metrics Metrics
	// events holds the shard's flight recorder when Config.Events is
	// set; the merged stream is exposed via EventLog.
	events *eventlog.Log
}

func newResult(cfg Config, sh Shard, now func() float64) *Result {
	r := &Result{
		Days:         cfg.Days,
		Speedups:     stats.NewSketch(speedupLo, speedupHi, speedupBins),
		Budgeted:     NewLoadBins(cfg.BinSeconds),
		Unlimited:    NewLoadBins(cfg.BinSeconds),
		BackhaulMbps: cfg.Scenario.BackhaulMbpsPer18k * float64(cfg.Homes) / 18000,
	}
	if cfg.Metrics {
		r.metrics = NewMetrics(obs.NewRegistry(), sh.Index)
	}
	if cfg.Events {
		// Every shard derives IDs from cfg.Seed (NOT sh.Seed): the
		// shard index already feeds the ID derivation, and a shared
		// seed is what keeps IDs collision-free across the merged
		// stream (the derivation is bijective per (seed, shard)).
		r.events = eventlog.New(sh.Index, cfg.Seed, now)
	}
	return r
}

// EventLog returns the merged flight recorder, or nil when the run was
// configured without Config.Events. Its JSONL serialisation is
// bit-identical for every worker count (see Mergeable).
func (r *Result) EventLog() *eventlog.Log {
	return r.events
}

// MetricsRegistry returns the merged obs registry, or nil when the run
// was configured without Config.Metrics. Its JSON dump is bit-identical
// for every worker count (see Mergeable).
func (r *Result) MetricsRegistry() *obs.Registry {
	return r.metrics.Registry()
}

// observeHome records a generated household's static quantities.
func (r *Result) observeHome(viewer bool, dailyBudget, baseMobileDaily float64, days int) {
	r.metrics.Homes.With(r.metrics.shard).Inc()
	r.Homes++
	if viewer {
		r.Viewers++
	}
	r.BudgetBytes += dailyBudget * float64(days)
	r.BaseMobileDailyBytes += baseMobileDaily
}

// recordSession folds one executed video request into the accumulators:
// home is the global home ID, m the home's boost model, tod the
// day-local request time, and b the boost outcome the engine computed
// against the home's remaining budget (the engine owns the SoA state;
// the Result owns only the merge-reduced aggregates).
func (r *Result) recordSession(home int, m BoostModel, tod, size float64, b Boost) {
	r.Sessions++
	r.TotalBytes += size
	r.metrics.session(b.OnloadedBytes)
	r.recordSessionTrace(home, m, size, b)
	r.DSLSeconds += b.DSLSeconds
	r.BoostSeconds += b.BoostSeconds
	if b.OnloadedBytes > 0 {
		r.BoostedSessions++
		r.OnloadedBytes += b.OnloadedBytes
		r.Budgeted.Spread(tod, b.BoostSeconds, b.OnloadedBytes)
	}
	if size >= m.MinBoostBytes {
		// The unlimited counterfactual onloads the ideal 3G share of
		// every boostable video regardless of budget.
		ideal := size * m.Share()
		r.Unlimited.Spread(tod, size*8/(m.DSLBits+m.G3Bits), ideal)
	}
}

// recordSessionTrace emits one session's flight-recorder trace: a
// "fleet.session" root spanning the whole (boosted) transfer, one leg
// span per path with its analytic duration, and a budget-exhaustion
// point for boostable videos the allowance could not cover. Begin times
// come from the engine's time cursor through the log's time source; leg
// ends are computed from the boost model (EndAt), since the fleet model
// is analytic rather than discrete-event per byte.
func (r *Result) recordSessionTrace(home int, m BoostModel, size float64, b Boost) {
	if r.events == nil {
		return
	}
	now := r.events.Now()
	root := r.events.Begin(eventlog.TraceContext{}, "fleet.session",
		"home", eventlog.Int(int64(home)), "bytes", eventlog.Float(size))
	dslBytes := size - b.OnloadedBytes
	adsl := r.events.Begin(root.Context(), "fleet.path.adsl",
		"path", "adsl", "bytes", eventlog.Float(dslBytes))
	adsl.EndAt(now+dslBytes*8/m.DSLBits, "outcome", "ok")
	if b.OnloadedBytes > 0 {
		g3 := r.events.Begin(root.Context(), "fleet.path.3g",
			"path", "3g", "bytes", eventlog.Float(b.OnloadedBytes))
		g3.EndAt(now+b.OnloadedBytes*8/m.G3Bits, "outcome", "ok")
	} else if size >= m.MinBoostBytes {
		r.events.Point(root.Context(), "fleet.budget_exhausted",
			"home", eventlog.Int(int64(home)))
	}
	root.EndAt(now+b.BoostSeconds,
		"onloaded", eventlog.Float(b.OnloadedBytes),
		"dsl_s", eventlog.Float(b.DSLSeconds),
		"boost_s", eventlog.Float(b.BoostSeconds))
}

// Merge folds src into r in shard order; see Mergeable.
func (r *Result) Merge(src *Result) {
	if src == nil {
		return
	}
	r.Homes += src.Homes
	r.Viewers += src.Viewers
	r.Sessions += src.Sessions
	r.BoostedSessions += src.BoostedSessions
	r.TotalBytes += src.TotalBytes
	r.OnloadedBytes += src.OnloadedBytes
	r.BudgetBytes += src.BudgetBytes
	r.DSLSeconds += src.DSLSeconds
	r.BoostSeconds += src.BoostSeconds
	r.BaseMobileDailyBytes += src.BaseMobileDailyBytes
	r.Speedups.Merge(src.Speedups)
	r.Budgeted.Merge(src.Budgeted)
	r.Unlimited.Merge(src.Unlimited)
	r.metrics.reg.Merge(src.metrics.reg) // both nil without Config.Metrics: a no-op
	if r.events != nil && src.events != nil {
		r.events.Merge(src.events)
	}
}

// BackhaulCrossings counts the 5-minute bins whose per-day average load
// exceeds the backhaul, for the budgeted and unlimited series — the
// Fig. 11(b) headline at fleet scale.
func (r *Result) BackhaulCrossings() (budgeted, unlimited int) {
	for _, v := range r.Budgeted.Mbps(r.Days) {
		if v > r.BackhaulMbps {
			budgeted++
		}
	}
	for _, v := range r.Unlimited.Mbps(r.Days) {
		if v > r.BackhaulMbps {
			unlimited++
		}
	}
	return budgeted, unlimited
}

// TotalIncrease is the relative increase in the phones' daily 3G volume
// caused by onloading (the Fig. 11(c) total-increase aggregate at 100%
// adoption of this population).
func (r *Result) TotalIncrease() float64 {
	base := r.BaseMobileDailyBytes * float64(r.Days)
	if base <= 0 {
		return 0
	}
	return r.OnloadedBytes / base
}

// PeakIncrease is the relative increase at the mobile network's peak
// hour: the onloaded load actually landing in that hour (wired-diurnal
// demand) against the base mobile load there. The Fig. 1 peak
// misalignment keeps it below TotalIncrease.
func (r *Result) PeakIncrease() float64 {
	peakHour := diurnal.Mobile.PeakHour()
	baseMass := HourlyMass(diurnal.Mobile)
	basePeak := r.BaseMobileDailyBytes * baseMass[peakHour]
	if basePeak <= 0 {
		return 0
	}
	var addedPeak float64
	for i, b := range r.Budgeted.Bytes {
		mid := (float64(i) + 0.5) * r.Budgeted.BinSeconds
		if int(mid/3600) == peakHour {
			addedPeak += b
		}
	}
	return addedPeak / float64(r.Days) / basePeak
}

// Report is the machine-readable summary of a run — what cmd/3golfleet
// emits with -json and what the golden determinism test pins. All
// fields derive from the merged Result alone.
type Report struct {
	Homes           int64 `json:"homes"`
	Viewers         int64 `json:"viewers"`
	Days            int   `json:"days"`
	Sessions        int64 `json:"sessions"`
	BoostedSessions int64 `json:"boosted_sessions"`

	SpeedupP50     float64 `json:"speedup_p50"`
	SpeedupP90     float64 `json:"speedup_p90"`
	SpeedupP99     float64 `json:"speedup_p99"`
	FracSpeedup12  float64 `json:"frac_speedup_ge_1_2"`
	OnloadedMBPerH float64 `json:"onloaded_mb_per_home_day"`

	BackhaulMbps      float64 `json:"backhaul_mbps"`
	BudgetedPeakMbps  float64 `json:"budgeted_peak_mbps"`
	UnlimitedPeakMbps float64 `json:"unlimited_peak_mbps"`
	BudgetedCrossBins int     `json:"budgeted_backhaul_cross_bins"`
	UnlimitedCross    int     `json:"unlimited_backhaul_cross_bins"`

	TotalIncrease float64 `json:"total_increase"`
	PeakIncrease  float64 `json:"peak_increase"`
}

// Report summarises the merged result.
func (r *Result) Report() Report {
	bCross, uCross := r.BackhaulCrossings()
	rep := Report{
		Homes:             r.Homes,
		Viewers:           r.Viewers,
		Days:              r.Days,
		Sessions:          r.Sessions,
		BoostedSessions:   r.BoostedSessions,
		SpeedupP50:        r.Speedups.Quantile(0.5),
		SpeedupP90:        r.Speedups.Quantile(0.9),
		SpeedupP99:        r.Speedups.Quantile(0.99),
		FracSpeedup12:     1 - r.Speedups.At(1.2),
		BackhaulMbps:      r.BackhaulMbps,
		BudgetedPeakMbps:  Peak(r.Budgeted.Mbps(r.Days)),
		UnlimitedPeakMbps: Peak(r.Unlimited.Mbps(r.Days)),
		BudgetedCrossBins: bCross,
		UnlimitedCross:    uCross,
		TotalIncrease:     r.TotalIncrease(),
		PeakIncrease:      r.PeakIncrease(),
	}
	if r.Homes > 0 {
		rep.OnloadedMBPerH = r.OnloadedBytes / float64(r.Homes) / float64(r.Days) / (1 << 20)
	}
	return rep
}
