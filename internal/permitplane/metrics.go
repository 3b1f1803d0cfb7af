package permitplane

import (
	"threegol/internal/obs"
	"threegol/internal/permitplane/wal"
)

// Result and outcome labels as recorded in Metrics.
const (
	resultGranted = "granted"
	resultDenied  = "denied"
	resultError   = "error"

	outcomeOK         = "ok"
	outcomeBadRequest = "bad_request"

	verdictStaleGrant = "stale_grant"
	verdictFailClosed = "fail_closed"

	probeOK     = "ok"
	probeFailed = "failed"
)

// Metrics holds the permit plane's instruments; register with
// NewMetrics. The families split into three roles — router-side (batch
// RPC handling), client-side (cache behaviour) and the shard's grant
// store and WAL — and any one process normally drives only one role's
// instruments, but they register together so METRICS.md documents the
// whole plane and so Sharded.MergedRegistry has a complete destination
// to merge into. The zero Metrics records nothing.
type Metrics struct {
	// BatchRequests counts POST /permits/batch calls by outcome
	// (ok | bad_request).
	BatchRequests *obs.Counter
	// BatchSize is the number of permit requests per batch RPC.
	BatchSize *obs.Histogram
	// Routed counts single GET /permit requests routed to a shard.
	Routed *obs.Counter

	// CacheHits counts Allowed calls served from the fresh cache with
	// no refresh triggered.
	CacheHits *obs.Counter
	// CacheRefreshes counts cache refreshes by result
	// (granted | denied | error).
	CacheRefreshes *obs.Counter
	// CacheProactive counts refreshes issued inside the jittered
	// pre-expiry window, while the cached permit was still valid.
	CacheProactive *obs.Counter
	// CacheCoalesced counts Allowed calls that coalesced onto another
	// caller's in-flight refresh instead of issuing their own.
	CacheCoalesced *obs.Counter

	// CacheDegraded counts transitions of the permit cache into
	// degraded mode (the per-endpoint circuit breaker opened after
	// consecutive refresh failures).
	CacheDegraded *obs.Counter
	// CacheDegradedServed counts Allowed verdicts served while
	// degraded without touching the backend, by verdict
	// (stale_grant | fail_closed).
	CacheDegradedServed *obs.Counter
	// CacheProbes counts half-open probes a degraded cache issued, by
	// result (ok | failed). An ok probe closes the breaker.
	CacheProbes *obs.Counter

	// OutstandingGrants is the shard's live (unexpired) permit count;
	// the shard-merged dump sums to the plane-wide total.
	OutstandingGrants *obs.Gauge
	// WALRecords counts write-ahead-log appends by op
	// (grant | refresh | revoke | expire).
	WALRecords *obs.Counter
	// WALErrors counts failed WAL writes — the daemon keeps serving
	// with degraded durability instead of going dark.
	WALErrors *obs.Counter
	// WALSnapshots counts snapshot compactions.
	WALSnapshots *obs.Counter
	// WALRecovered counts grants reconstructed by boot-time replay.
	WALRecovered *obs.Counter
	// WALExpiredOnRecovery counts replayed grants whose TTL lapsed
	// during the outage and were expired at the recovery instant.
	WALExpiredOnRecovery *obs.Counter
	// WALReplayedRecords counts log records applied by boot-time
	// replay (on top of the snapshot).
	WALReplayedRecords *obs.Counter
	// WALTornBytes counts trailing bytes a crash left torn, truncated
	// at recovery.
	WALTornBytes *obs.Counter
	// OversizedIDs counts decisions left untracked because the device
	// or cell identifier exceeded wal.MaxIDLen — an ID that long can be
	// framed neither in a WAL record nor in a snapshot.
	OversizedIDs *obs.Counter
}

// NewMetrics registers the permit plane's metrics on r.
func NewMetrics(r *obs.Registry) Metrics {
	return Metrics{
		BatchRequests: r.NewCounter("permitplane_batch_requests_total",
			"Batch permit RPCs served, by outcome (ok | bad_request).", "outcome"),
		BatchSize: r.NewHistogram("permitplane_batch_size",
			"Permit requests per batch RPC.",
			0, 4096, 256),
		Routed: r.NewCounter("permitplane_routed_total",
			"Single GET /permit requests routed to a shard."),
		CacheHits: r.NewCounter("permitplane_cache_hits_total",
			"Permit-cache lookups served fresh with no refresh triggered."),
		CacheRefreshes: r.NewCounter("permitplane_cache_refreshes_total",
			"Permit-cache refreshes, by result (granted | denied | error).", "result"),
		CacheProactive: r.NewCounter("permitplane_cache_proactive_total",
			"Permit-cache refreshes issued proactively, inside the jittered pre-expiry window."),
		CacheCoalesced: r.NewCounter("permitplane_cache_coalesced_total",
			"Permit-cache lookups coalesced onto an in-flight refresh (singleflight)."),
		CacheDegraded: r.NewCounter("permitplane_cache_degraded_total",
			"Permit-cache transitions into degraded mode (circuit breaker opened on consecutive refresh failures)."),
		CacheDegradedServed: r.NewCounter("permitplane_cache_degraded_served_total",
			"Permit verdicts served while degraded without a backend round trip, by verdict (stale_grant | fail_closed).",
			"verdict"),
		CacheProbes: r.NewCounter("permitplane_cache_probes_total",
			"Half-open probes issued by a degraded permit cache, by result (ok | failed).", "result"),
		OutstandingGrants: r.NewGauge("permitplane_outstanding_grants",
			"Live (unexpired) permits tracked by the shard's grant store; shard-merged dumps sum to the plane total."),
		WALRecords: r.NewCounter("permitplane_wal_records_total",
			"Write-ahead-log appends, by op (grant | refresh | revoke | expire).", "op"),
		WALErrors: r.NewCounter("permitplane_wal_errors_total",
			"Failed write-ahead-log writes (durability degraded; decisions keep serving)."),
		WALSnapshots: r.NewCounter("permitplane_wal_snapshots_total",
			"Grant-state snapshot compactions."),
		WALRecovered: r.NewCounter("permitplane_wal_recovered_grants_total",
			"Outstanding grants reconstructed by boot-time WAL replay."),
		WALExpiredOnRecovery: r.NewCounter("permitplane_wal_expired_on_recovery_total",
			"Replayed grants whose TTL lapsed during the outage, expired at the recovery instant."),
		WALReplayedRecords: r.NewCounter("permitplane_wal_replayed_records_total",
			"Write-ahead-log records applied by boot-time replay (on top of the snapshot)."),
		WALTornBytes: r.NewCounter("permitplane_wal_torn_bytes_total",
			"Torn trailing bytes a crash left in the log, truncated at recovery."),
		OversizedIDs: r.NewCounter("permitplane_oversized_ids_total",
			"Permit decisions left untracked because the device or cell ID exceeded the WAL identifier bound."),
	}
}

func (m *Metrics) batchServed(ok bool, size int) {
	outcome := outcomeBadRequest
	if ok {
		outcome = outcomeOK
	}
	m.BatchRequests.With(outcome).Inc()
	if ok {
		m.BatchSize.Observe(float64(size))
	}
}

func (m *Metrics) cacheRefreshed(granted bool, err error, proactive bool) {
	result := resultDenied
	switch {
	case err != nil:
		result = resultError
	case granted:
		result = resultGranted
	}
	m.CacheRefreshes.With(result).Inc()
	if proactive {
		m.CacheProactive.Inc()
	}
}

func (m *Metrics) cacheDegradedServed(staleGrant bool) {
	if staleGrant {
		m.CacheDegradedServed.With(verdictStaleGrant).Inc()
	} else {
		m.CacheDegradedServed.With(verdictFailClosed).Inc()
	}
}

func (m *Metrics) cacheProbed(ok bool) {
	if ok {
		m.CacheProbes.With(probeOK).Inc()
	} else {
		m.CacheProbes.With(probeFailed).Inc()
	}
}

func (m *Metrics) walRecovered(grants, expired int, stats wal.RecoveryStats) {
	m.WALRecovered.Add(int64(grants))
	m.WALExpiredOnRecovery.Add(int64(expired))
	m.WALReplayedRecords.Add(stats.RecordsReplayed)
	m.WALTornBytes.Add(stats.TornBytes)
}
