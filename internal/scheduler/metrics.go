package scheduler

import "threegol/internal/obs"

// Metrics holds the scheduler's instruments. Register once per process
// (or per simulation shard) with NewMetrics and hand the struct to
// every transaction via Options.Metrics; the zero Metrics records
// nothing, at the cost of a nil check per event.
//
// The "path" label carries Path.Name() ("adsl", "phone1", …). Elapsed
// times come from the transaction's injected clock.Clock, so a
// virtual-clock run fills the latency histogram deterministically.
type Metrics struct {
	// Assignments counts item-to-path launches: every attempt a path
	// starts, be it an item's first, a retry or an endgame replica.
	Assignments *obs.Counter
	// Completed counts winning transfers per path.
	Completed *obs.Counter
	// Retries counts failed transfer attempts (the item is retried on
	// the same path, or — under GRD — requeued for another).
	Retries *obs.Counter
	// Requeues counts items put back on the shared pending pool because
	// the last path carrying them failed — the reassignment-on-path-
	// death signal. Always zero under RR and MIN, whose items never
	// leave the queue they were dealt to.
	Requeues *obs.Counter
	// Duplicates counts endgame replica launches (GRD/PLAYOUT only).
	Duplicates *obs.Counter
	// Splits counts items divided: an idle path taking the head of a
	// pending item sized to its rate, or the tail of an in-flight attempt,
	// which ends early (GRD/PLAYOUT over ranged paths).
	Splits *obs.Counter
	// Bytes counts all bytes moved per path, including losing replicas.
	Bytes *obs.Counter
	// WastedBytes counts bytes moved by replicas that lost the endgame
	// race.
	WastedBytes *obs.Counter
	// ItemSeconds records, for each completed item, the elapsed time
	// from transaction start to its first completion, by winning path —
	// the per-transaction completion curve (Report.ItemDone) as a
	// mergeable histogram.
	ItemSeconds *obs.Histogram
	// StallAborts counts progress-watchdog aborts: attempts cancelled
	// because no bytes moved within Options.StallTimeout, by path.
	StallAborts *obs.Counter
	// Backoffs counts backoff sleeps applied before retry attempts, by
	// path.
	Backoffs *obs.Counter
	// BreakerOpens counts circuit-breaker openings (path ejected from
	// the rotation after consecutive failures), by path.
	BreakerOpens *obs.Counter
	// BreakerProbes counts half-open probe admissions after a cooldown,
	// by path.
	BreakerProbes *obs.Counter
	// BreakerCloses counts breaker re-closures (a half-open probe
	// succeeded and the path rejoined the rotation), by path.
	BreakerCloses *obs.Counter
}

// NewMetrics registers the scheduler's metrics on r.
func NewMetrics(r *obs.Registry) Metrics {
	return Metrics{
		Assignments: r.NewCounter("scheduler_assignments_total",
			"Item-to-path launches: first attempts, retries and endgame replicas.", "path"),
		Completed: r.NewCounter("scheduler_items_completed_total",
			"Winning item transfers, by path.", "path"),
		Retries: r.NewCounter("scheduler_retries_total",
			"Failed transfer attempts that will be retried or requeued, by path.", "path"),
		Requeues: r.NewCounter("scheduler_requeues_total",
			"Items put back on the pending pool after the last path carrying them failed (reassignment on path death; GRD/PLAYOUT)."),
		Duplicates: r.NewCounter("scheduler_duplicates_total",
			"Endgame replica launches (GRD/PLAYOUT), by path.", "path"),
		Splits: r.NewCounter("scheduler_splits_total",
			"Items divided: an idle path took the head of a pending item sized to its rate, or the tail bytes of an in-flight attempt (GRD/PLAYOUT over ranged paths)."),
		Bytes: r.NewCounter("scheduler_bytes_total",
			"Bytes moved per path, including losing replicas.", "path"),
		WastedBytes: r.NewCounter("scheduler_wasted_bytes_total",
			"Bytes moved by replicas that lost the endgame race."),
		ItemSeconds: r.NewHistogram("scheduler_item_seconds",
			"Elapsed time from transaction start to each item's first completion, by winning path.",
			0, 60, 1200, "path"),
		StallAborts: r.NewCounter("scheduler_stall_aborts_total",
			"Attempts aborted by the progress watchdog (no bytes moved within the stall timeout), by path.", "path"),
		Backoffs: r.NewCounter("scheduler_backoffs_total",
			"Backoff sleeps applied before retry attempts, by path.", "path"),
		BreakerOpens: r.NewCounter("scheduler_breaker_opens_total",
			"Circuit-breaker openings: path ejected from the rotation after consecutive failures, by path.", "path"),
		BreakerProbes: r.NewCounter("scheduler_breaker_probes_total",
			"Half-open probe admissions after a breaker cooldown elapsed, by path.", "path"),
		BreakerCloses: r.NewCounter("scheduler_breaker_closes_total",
			"Breaker re-closures: a half-open probe succeeded and the path rejoined the rotation, by path.", "path"),
	}
}
