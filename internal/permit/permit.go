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
	// OnGrant, when non-nil, fires after each granted decision with the
	// cell ID — the hook the permit plane's admission loop uses to feed
	// granted load back into the cell-utilisation model. It is called
	// from handler goroutines and must be safe for concurrent use.
	OnGrant func(cellID string)
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

// Decide makes one admission decision for a cell: granted while the
// monitoring hook reports utilisation below the threshold, denied
// otherwise. The sharded permit plane calls it once per request, whether
// the request came as a GET /permit or inside a batch. The
// flight-recorder point joins the TraceContext riding ctx (HTTP callers
// extract the X-3gol-Trace header into it first).
func (b *Backend) Decide(ctx context.Context, cell string) Response {
	clk := clock.Or(b.Clock)
	t0 := clk.Now()
	util := b.Utilization(cell)
	resp := Response{Utilization: util}
	if util < b.threshold() {
		resp.Granted = true
		resp.TTLSeconds = b.ttl().Seconds()
	}
	if resp.Granted && b.OnGrant != nil {
		b.OnGrant(cell)
	}
	b.Metrics.decided(resp.Granted, clk.Since(t0).Seconds())
	if b.Events != nil {
		tc, _ := eventlog.FromContext(ctx)
		attrs := []string{"cell", cell, "granted", strconv.FormatBool(resp.Granted),
			"utilization", eventlog.Float(util)}
		attrs = append(attrs, b.Tags...)
		b.Events.Point(tc, "permit.decision", attrs...)
	}
	return resp
}
