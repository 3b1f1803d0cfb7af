package transfer

import "threegol/internal/obs"

// Directions and outcomes as recorded in Metrics.
const (
	dirDownload = "download"
	dirUpload   = "upload"

	outcomeOK        = "ok"
	outcomeError     = "error"
	outcomeCancelled = "cancelled" // a losing endgame replica was aborted
)

// Metrics holds the HTTP transfer drivers' instruments; register with
// NewMetrics and assign to DownloadPath.Metrics / UploadPath.Metrics
// (one Metrics can serve any number of paths). The zero Metrics records
// nothing. Latencies are measured on the path's Clock.
type Metrics struct {
	// Requests counts transfer attempts by direction and outcome
	// (ok | error | cancelled).
	Requests *obs.Counter
	// Bytes counts payload bytes moved, by direction — partial bytes of
	// failed and aborted transfers included, mirroring what the
	// scheduler accounts per path.
	Bytes *obs.Counter
	// RequestSeconds is the wall/virtual duration of successful
	// transfers, by direction.
	RequestSeconds *obs.Histogram
}

// NewMetrics registers the transfer drivers' metrics on r.
func NewMetrics(r *obs.Registry) Metrics {
	return Metrics{
		Requests: r.NewCounter("transfer_requests_total",
			"HTTP transfer attempts, by direction (download | upload) and outcome (ok | error | cancelled).",
			"direction", "outcome"),
		Bytes: r.NewCounter("transfer_bytes_total",
			"Payload bytes moved, by direction; partial bytes of failed transfers included.", "direction"),
		RequestSeconds: r.NewHistogram("transfer_request_seconds",
			"Duration of successful transfers, by direction.",
			0, 60, 1200, "direction"),
	}
}

// done records one finished transfer attempt.
func (m *Metrics) done(direction string, n int64, err error, cancelled bool, secs float64) {
	outcome := outcomeOK
	switch {
	case cancelled:
		outcome = outcomeCancelled
	case err != nil:
		outcome = outcomeError
	}
	m.Requests.With(direction, outcome).Inc()
	if n > 0 {
		m.Bytes.With(direction).Add(n)
	}
	if err == nil {
		m.RequestSeconds.With(direction).Observe(secs)
	}
}
