// Package permit implements the 3GOL backend's admission decision in the
// network-integrated deployment (§2.4): devices ask permission to
// onload; the backend consults the cellular monitoring system and grants
// a time-limited permit only while utilisation in the device's cell is
// below the acceptance threshold. Devices cache the permit and stop
// advertising themselves on the LAN the moment it lapses. The HTTP
// surface (GET /permit, POST /permits/batch) is permitplane.Sharded,
// which runs one Backend per shard; the device side is
// permitplane.Cache over permitplane.BatchClient.
package permit

import (
	"context"
	"strconv"
	"time"

	"threegol/internal/clock"
	"threegol/internal/obs/eventlog"
)

// DefaultTTL is how long a granted permit stays valid ("a permit is
// cached for a certain duration (few minutes)"); tests override it.
const DefaultTTL = 3 * time.Minute

// DefaultThreshold is the default utilisation acceptance threshold.
const DefaultThreshold = 0.7

// Backend is the operator-side permit decision: Decide, instrumented by
// Metrics, answered as a Response.
type Backend struct {
	// Utilization reports current utilisation (0..1) of a cell — the
	// interface to the 3G network monitoring system. Required. It is
	// called from HTTP handler goroutines and must be safe for
	// concurrent use (sample into an atomic snapshot rather than
	// reaching into single-threaded state).
	Utilization func(cellID string) float64
	// Threshold is the acceptance threshold; 0 selects DefaultThreshold.
	Threshold float64
	// TTL is the permit lifetime; 0 selects DefaultTTL.
	TTL time.Duration
	// Metrics receives decision instrumentation (see NewMetrics); the
	// zero value records nothing.
	Metrics Metrics
	// Events, when non-nil, records a flight-recorder point per permit
	// decision, parented to the caller's X-3gol-Trace header when
	// present — stitching backend decisions into device-side traces.
	Events *eventlog.Log
	// Clock times decisions for Metrics; nil selects the system clock.
	Clock clock.Clock
	// Tags are extra attribute pairs appended to every decision's
	// flight-recorder point (e.g. "shard", "3" in the sharded plane).
	Tags []string
}

// Response is the backend's JSON reply.
type Response struct {
	Granted    bool    `json:"granted"`
	TTLSeconds float64 `json:"ttl_seconds"`
	// Utilization echoes the observed cell utilisation (diagnostics).
	Utilization float64 `json:"utilization"`
}

func (b *Backend) threshold() float64 {
	if b.Threshold <= 0 {
		return DefaultThreshold
	}
	return b.Threshold
}

func (b *Backend) ttl() time.Duration {
	if b.TTL <= 0 {
		return DefaultTTL
	}
	return b.TTL
}

// Decide makes one admission decision for a cell: DecideN of one.
func (b *Backend) Decide(ctx context.Context, cell string) (resp Response) {
	b.DecideN(ctx, 1, func(int) string { return cell }, func(_ int, r Response) { resp = r })
	return resp
}

// DecideN makes n admission decisions, the k-th for cell(k), handing
// each to out(k, ·): granted while the monitoring hook reports
// utilisation below the threshold. The clock is read before the first
// decision and after the last, and the slice recorded as n decisions of
// its mean service time; the counts are added once too. Each
// flight-recorder point joins ctx's trace.
func (b *Backend) DecideN(ctx context.Context, n int, cell func(k int) string, out func(k int, r Response)) {
	clk := clock.Or(b.Clock)
	threshold, ttl := b.threshold(), b.ttl().Seconds()
	granted := 0
	t0 := clk.Now()
	for k := 0; k < n; k++ {
		c := cell(k)
		resp := Response{Utilization: b.Utilization(c)}
		if resp.Utilization < threshold {
			resp.Granted, resp.TTLSeconds = true, ttl
			granted++
		}
		if b.Events != nil {
			tc, _ := eventlog.FromContext(ctx)
			attrs := []string{"cell", c, "granted", strconv.FormatBool(resp.Granted),
				"utilization", eventlog.Float(resp.Utilization)}
			attrs = append(attrs, b.Tags...)
			b.Events.Point(tc, "permit.decision", attrs...)
		}
		out(k, resp)
	}
	if n > 0 {
		b.Metrics.seconds.ObserveN(clk.Since(t0).Seconds()/float64(n), n)
	}
	b.Metrics.granted.Add(int64(granted))
	b.Metrics.denied.Add(int64(n - granted))
}
