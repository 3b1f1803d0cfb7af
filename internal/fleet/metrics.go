package fleet

import (
	"strconv"

	"threegol/internal/obs"
)

// Metrics holds the fleet engine's instruments, one Registry per shard
// accumulator; the zero Metrics records nothing. Per-shard counters
// carry the shard index as a label, so a merged dump shows how the
// population and its activity were partitioned; the speedup histogram
// is unlabelled and merges exactly across shards.
//
// Determinism: every instrument derives from the shard simulation alone —
// no wall-clock rates, no timestamps — so the merged registry's JSON dump
// is bit-identical for every worker count, exactly like Result itself.
type Metrics struct {
	reg   *obs.Registry
	shard string

	// Homes counts generated households, by shard.
	Homes *obs.Counter
	// Sessions counts video sessions simulated, by shard.
	Sessions *obs.Counter
	// BoostedSessions counts sessions that onloaded at least one byte,
	// by shard.
	BoostedSessions *obs.Counter
	// OnloadedBytes counts 3G-carried video bytes (truncated to whole
	// bytes), by shard.
	OnloadedBytes *obs.Counter
	// Speedup sketches the per-home-day DSL/boost latency ratio —
	// the same observations as Result.Speedups, in histogram form.
	Speedup *obs.Histogram
}

// NewMetrics registers the fleet engine's metrics on r for the given
// shard. Every shard must call this with the same registration order
// (guaranteed by construction here) so shard registries merge exactly.
func NewMetrics(r *obs.Registry, shard int) Metrics {
	return Metrics{
		reg:   r,
		shard: strconv.Itoa(shard),
		Homes: r.NewCounter("fleet_shard_homes_total",
			"Households generated, by shard.", "shard"),
		Sessions: r.NewCounter("fleet_shard_sessions_total",
			"Video sessions simulated, by shard.", "shard"),
		BoostedSessions: r.NewCounter("fleet_shard_boosted_sessions_total",
			"Sessions that onloaded at least one byte, by shard.", "shard"),
		OnloadedBytes: r.NewCounter("fleet_shard_onloaded_bytes_total",
			"3G-carried video bytes (whole bytes), by shard.", "shard"),
		Speedup: r.NewHistogram("fleet_speedup",
			"Per-home-day DSL/boost latency ratio (the Fig. 11(a) CDF).",
			speedupLo, speedupHi, speedupBins),
	}
}

// Registry exposes the backing registry (for dumps and merging); nil
// for the zero Metrics.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

func (m *Metrics) session(onloaded float64) {
	m.Sessions.With(m.shard).Inc()
	if onloaded > 0 {
		m.BoostedSessions.With(m.shard).Inc()
		m.OnloadedBytes.With(m.shard).Add(int64(onloaded))
	}
}
