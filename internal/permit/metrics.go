package permit

import "threegol/internal/obs"

// Decision labels as recorded in Metrics.
const (
	decisionGranted = "granted"
	decisionDenied  = "denied"
)

// Metrics holds the permit backend's instruments; register with
// NewMetrics and assign to Backend.Metrics. The zero Metrics records
// nothing and counts zero.
type Metrics struct {
	// Decisions counts backend permit decisions (granted | denied).
	Decisions *obs.Counter
	// DecisionSeconds is the backend's service time per decision: each
	// DecideN slice is timed once and recorded as its mean, n times.
	// Dominated by the Utilization monitoring hook.
	DecisionSeconds *obs.Histogram

	// The three series every decision touches, resolved once: looking a
	// child up costs a lock, a key and an allocation.
	granted, denied *obs.CounterChild
	seconds         *obs.HistogramChild
}

// NewMetrics registers the permit subsystem's metrics on r.
func NewMetrics(r *obs.Registry) Metrics {
	m := Metrics{
		Decisions: r.NewCounter("permit_decisions_total",
			"Backend permit decisions, by decision (granted | denied).", "decision"),
		DecisionSeconds: r.NewHistogram("permit_decision_seconds",
			"Backend service time per permit decision.",
			0, 60, 1200),
	}
	m.granted = m.Decisions.With(decisionGranted)
	m.denied = m.Decisions.With(decisionDenied)
	m.seconds = m.DecisionSeconds.With()
	return m
}

// Counts reads the granted and denied series of Decisions. It is the
// only decision count: the permit plane's Stats and Status read it.
func (m *Metrics) Counts() (grants, denials int64) {
	return m.granted.Value(), m.denied.Value()
}
