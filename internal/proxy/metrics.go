package proxy

import "threegol/internal/obs"

// Request outcomes as recorded in Metrics.Requests.
const (
	outcomeProxied = "proxied" // absolute-form request forwarded upstream
	outcomeTunnel  = "tunnel"  // CONNECT tunnel spliced
	outcomeDenied  = "denied"  // Admit hook said no (no permit / no quota)
	outcomeError   = "error"   // upstream unreachable or bad request
)

// Metrics holds the device proxy's instruments; register with
// NewMetrics and assign to Server.Metrics. The zero Metrics records
// nothing. Latencies are measured on Server.Clock.
type Metrics struct {
	// Requests counts proxied requests by outcome
	// (proxied | tunnel | denied | error).
	Requests *obs.Counter
	// Bytes counts bytes moved over the 3G interface (both directions,
	// tunnels included) — the quantity the quota tracker charges.
	Bytes *obs.Counter
	// RequestSeconds is the service time of plain-HTTP proxied requests
	// (first byte in to last body byte out); tunnels are excluded, their
	// lifetime is connection-scoped.
	RequestSeconds *obs.Histogram
	// AdmitSeconds is the time the Admit hook takes to answer (a permit
	// check or quota lookup) per request that reaches it.
	AdmitSeconds *obs.Histogram
}

// NewMetrics registers the proxy's metrics on r.
func NewMetrics(r *obs.Registry) Metrics {
	return Metrics{
		Requests: r.NewCounter("proxy_requests_total",
			"Requests handled by the device proxy, by outcome (proxied | tunnel | denied | error).", "outcome"),
		Bytes: r.NewCounter("proxy_bytes_total",
			"Bytes moved over the 3G interface, both directions, tunnels included."),
		RequestSeconds: r.NewHistogram("proxy_request_seconds",
			"Service time of plain-HTTP proxied requests (tunnels excluded).",
			0, 60, 1200),
		AdmitSeconds: r.NewHistogram("proxy_admit_seconds",
			"Time the Admit hook (permit or quota gate) takes per request.",
			0, 60, 1200),
	}
}
