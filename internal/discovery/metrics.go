package discovery

import "threegol/internal/obs"

// Beacon states as recorded in Metrics.Beacons.
const (
	beaconSent       = "sent"
	beaconSuppressed = "suppressed" // Announce said no: no permit / no quota
)

// Metrics holds the discovery protocol's instruments; register with
// NewMetrics and assign to Beacon.Metrics and/or Browser.Metrics. The
// zero Metrics records nothing. The Devices gauge plus the expiry
// counter together describe the churn of the admissible set Φ.
type Metrics struct {
	// Announcements counts datagrams the browser accepted.
	Announcements *obs.Counter
	// Beacons counts beacon rounds by state (sent | suppressed); the
	// suppressed count measures how often admission control silenced a
	// device.
	Beacons *obs.Counter
	// Expired counts entries aged out of the device table (a device
	// withdrawing by falling silent).
	Expired *obs.Counter
	// Devices is the size of the admissible set Φ as of the last
	// Devices() sweep.
	Devices *obs.Gauge
}

// NewMetrics registers the discovery protocol's metrics on r.
func NewMetrics(r *obs.Registry) Metrics {
	return Metrics{
		Announcements: r.NewCounter("discovery_announcements_received_total",
			"Well-formed announcement datagrams accepted by the browser."),
		Beacons: r.NewCounter("discovery_beacons_total",
			"Beacon rounds, by state (sent | suppressed); suppressed rounds were silenced by admission control.",
			"state"),
		Expired: r.NewCounter("discovery_entries_expired_total",
			"Device-table entries aged out after their TTL lapsed."),
		Devices: r.NewGauge("discovery_devices",
			"Size of the admissible device set as of the last table sweep."),
	}
}

func (m *Metrics) beacon(sent bool) {
	state := beaconSuppressed
	if sent {
		state = beaconSent
	}
	m.Beacons.With(state).Inc()
}

func (m *Metrics) swept(expired, live int) {
	if expired > 0 {
		m.Expired.Add(int64(expired))
	}
	m.Devices.Set(float64(live))
}
