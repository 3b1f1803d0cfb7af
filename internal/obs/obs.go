// Package obs is the repository's deterministic observability layer: a
// stdlib-only metrics registry (counters, gauges and fixed-bin
// histograms backed by stats.Sketch) for the onloading pipeline — the
// scheduler, the device proxy, the transfer drivers, the permit control
// plane, discovery and the fleet engine. Spans live in the eventlog
// subpackage, the flight recorder.
//
// Two properties distinguish it from an off-the-shelf metrics library:
//
//   - Determinism. The package never reads the wall clock (it is on the
//     3golvet SimPackages list): every duration observed into it comes
//     from an injected clock.Clock or a virtual simclock, and snapshots
//     are emitted in sorted (name, label-value) order. A simulation
//     that fills a registry is therefore as bit-reproducible as the
//     simulation itself.
//   - Exact merging. Registries built by the same registration function
//     merge shard-by-shard through Registry.Merge — counters and gauges
//     add, histograms fold their count vectors via stats.Sketch.Merge —
//     so the fleet engine's merge-reduce path (internal/fleet.Mergeable)
//     carries metrics with the same bit-identical-across-worker-counts
//     guarantee as its results.
//
// The registry is self-describing: every metric registers with a name,
// type, label names and help string, and cmd/3golobs renders METRICS.md
// from a fully-registered catalogue, so the reference cannot drift from
// the code (CI runs `3golobs gen-docs -check`).
//
// Registering the same name twice panics: metric names are a
// program-wide contract, and a silent second registration would fork
// the time series.
//
// A nil *Counter, *Gauge or *Histogram, and every child it hands out,
// records nothing and reads zero. That is what lets each package's
// Metrics be plain data: its zero value disables instrumentation.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"threegol/internal/stats"
)

// Metric type names as they appear in descriptors, snapshots and docs.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Desc is a metric's self-description — everything the generated
// reference (METRICS.md) and the /debug/metrics endpoint expose about
// it besides its values.
type Desc struct {
	// Name is the registry-wide unique identifier, conventionally
	// "<subsystem>_<quantity>[_<unit>][_total]".
	Name string
	// Type is one of TypeCounter, TypeGauge, TypeHistogram.
	Type string
	// Help is the one-line human description rendered into METRICS.md.
	Help string
	// Labels are the label names; children are addressed by one value
	// per label.
	Labels []string
}

// Metric is one registered family: a descriptor plus its children (one
// per distinct label-value tuple; exactly one for label-less metrics).
type Metric interface {
	Desc() Desc

	merge(src Metric)
	snapshot() MetricSnapshot
}

// Registry holds a set of uniquely-named metrics. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]Metric)}
}

// register adds m, panicking on a duplicate name — two registrations of
// one name is a programmer error, not a data condition.
func (r *Registry) register(m Metric) {
	d := m.Desc()
	if d.Name == "" {
		panic("obs: metric registered with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[d.Name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric registration %q", d.Name))
	}
	r.metrics[d.Name] = m
}

// NewCounter registers a monotonically increasing int64 counter.
func (r *Registry) NewCounter(name, help string, labels ...string) *Counter {
	c := &Counter{family: newFamily(Desc{Name: name, Type: TypeCounter, Help: help, Labels: labels})}
	r.register(c)
	return c
}

// NewGauge registers a float64 level that can move both ways. Gauges
// merge by summation (per-shard gauges are additive levels, e.g. live
// entry counts), which keeps Registry.Merge exact.
func (r *Registry) NewGauge(name, help string, labels ...string) *Gauge {
	g := &Gauge{family: newFamily(Desc{Name: name, Type: TypeGauge, Help: help, Labels: labels})}
	r.register(g)
	return g
}

// NewHistogram registers a fixed-bin histogram over [lo, hi) with the
// given bin count, backed by stats.Sketch (observations outside the
// range clamp into the edge bins; min/max/sum stay exact). Histograms
// merge exactly, bin by bin.
func (r *Registry) NewHistogram(name, help string, lo, hi float64, bins int, labels ...string) *Histogram {
	h := &Histogram{
		family: newFamily(Desc{Name: name, Type: TypeHistogram, Help: help, Labels: labels}),
		lo:     lo, hi: hi, bins: bins,
	}
	r.register(h)
	return h
}

// Descs returns every registered descriptor sorted by name — the
// catalogue the documentation generator renders.
func (r *Registry) Descs() []Desc {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Desc, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m.Desc())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Merge folds src into r. Every metric in src must exist in r with an
// identical descriptor (both registries built by the same registration
// functions); a name or shape mismatch panics, because merging
// differently-declared metrics would corrupt both. Counters and gauges
// add; histograms merge their sketches exactly. Merge is deterministic:
// called in a fixed order (e.g. fleet shard order) it produces
// bit-identical results regardless of how work was parallelised.
func (r *Registry) Merge(src *Registry) {
	if src == nil {
		return
	}
	names, srcMetrics := src.export()
	for i, name := range names {
		dst, ok := r.lookup(name)
		if !ok {
			panic(fmt.Sprintf("obs: merging unknown metric %q", name))
		}
		if !sameDesc(dst.Desc(), srcMetrics[i].Desc()) {
			panic(fmt.Sprintf("obs: merging metric %q with mismatched descriptors", name))
		}
		dst.merge(srcMetrics[i])
	}
}

// export returns the registry's metrics in sorted-name order.
func (r *Registry) export() ([]string, []Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	metrics := make([]Metric, len(names))
	for i, name := range names {
		metrics[i] = r.metrics[name]
	}
	return names, metrics
}

// lookup finds a metric by name.
func (r *Registry) lookup(name string) (Metric, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[name]
	return m, ok
}

func sameDesc(a, b Desc) bool {
	if a.Name != b.Name || a.Type != b.Type || len(a.Labels) != len(b.Labels) {
		return false
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return false
		}
	}
	return true
}

// ----- families and children -----

// labelSep joins label values into child keys; it cannot appear in
// reasonable label values (ASCII unit separator).
const labelSep = "\x1f"

// family is the shared child bookkeeping of all three metric types.
type family struct {
	desc Desc

	mu       sync.Mutex
	children map[string][]string // child key → label values
}

func newFamily(d Desc) family {
	return family{desc: d, children: make(map[string][]string)}
}

// Desc implements Metric.
func (f *family) Desc() Desc { return f.desc }

// childKey validates the label-value tuple and returns its map key.
func (f *family) childKey(values []string) string {
	if len(values) != len(f.desc.Labels) {
		panic(fmt.Sprintf("obs: metric %q takes %d label value(s), got %d",
			f.desc.Name, len(f.desc.Labels), len(values)))
	}
	return strings.Join(values, labelSep)
}

// sortedKeys returns the child keys in deterministic order. Caller
// holds f.mu.
func (f *family) sortedKeys() []string {
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Counter is a monotonically increasing counter family.
type Counter struct {
	family
	values map[string]*int64
}

// With returns the child for the given label values, creating it on
// first use. Call with no arguments for a label-less counter. A nil
// Counter returns a nil child, which records nothing.
func (c *Counter) With(values ...string) *CounterChild {
	if c == nil {
		return nil
	}
	key := c.childKey(values)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.values == nil {
		c.values = make(map[string]*int64)
	}
	v, ok := c.values[key]
	if !ok {
		v = new(int64)
		c.values[key] = v
		c.children[key] = append([]string(nil), values...)
	}
	return &CounterChild{c: c, v: v}
}

// Inc is shorthand for With().Inc() on a label-less counter.
func (c *Counter) Inc() { c.With().Inc() }

// Add is shorthand for With().Add(n) on a label-less counter.
func (c *Counter) Add(n int64) { c.With().Add(n) }

// CounterChild is one labelled time series of a Counter. Its methods
// are no-ops on a nil child.
type CounterChild struct {
	c *Counter
	v *int64
}

// Inc adds 1.
func (cc *CounterChild) Inc() { cc.Add(1) }

// Add adds n; negative increments panic (counters are monotone).
func (cc *CounterChild) Add(n int64) {
	if cc == nil {
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("obs: counter %q decremented by %d", cc.c.desc.Name, n))
	}
	cc.c.mu.Lock()
	defer cc.c.mu.Unlock()
	*cc.v += n
}

// Value reports the child's current count.
func (cc *CounterChild) Value() int64 {
	if cc == nil {
		return 0
	}
	cc.c.mu.Lock()
	defer cc.c.mu.Unlock()
	return *cc.v
}

func (c *Counter) merge(src Metric) {
	s := src.(*Counter)
	s.mu.Lock()
	keys := s.sortedKeys()
	vals := make([]int64, len(keys))
	labels := make([][]string, len(keys))
	for i, k := range keys {
		vals[i] = *s.values[k]
		labels[i] = s.children[k]
	}
	s.mu.Unlock()
	for i, k := range keys {
		c.With(labels[i]...)
		c.mu.Lock()
		*c.values[k] += vals[i]
		c.mu.Unlock()
	}
}

func (c *Counter) snapshot() MetricSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := MetricSnapshot{Name: c.desc.Name, Type: c.desc.Type, Help: c.desc.Help, Labels: c.desc.Labels}
	for _, k := range c.sortedKeys() {
		snap.Values = append(snap.Values, ValueSnapshot{
			LabelValues: c.children[k],
			Value:       float64(*c.values[k]),
		})
	}
	return snap
}

// Gauge is a float64 level family.
type Gauge struct {
	family
	values map[string]*float64
}

// With returns the child for the given label values, creating it on
// first use. A nil Gauge returns a nil child, which records nothing.
func (g *Gauge) With(values ...string) *GaugeChild {
	if g == nil {
		return nil
	}
	key := g.childKey(values)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.values == nil {
		g.values = make(map[string]*float64)
	}
	v, ok := g.values[key]
	if !ok {
		v = new(float64)
		g.values[key] = v
		g.children[key] = append([]string(nil), values...)
	}
	return &GaugeChild{g: g, v: v}
}

// Set is shorthand for With().Set(v) on a label-less gauge.
func (g *Gauge) Set(v float64) { g.With().Set(v) }

// Add is shorthand for With().Add(v) on a label-less gauge.
func (g *Gauge) Add(v float64) { g.With().Add(v) }

// GaugeChild is one labelled time series of a Gauge. Its methods are
// no-ops on a nil child.
type GaugeChild struct {
	g *Gauge
	v *float64
}

// Set replaces the level.
func (gc *GaugeChild) Set(v float64) {
	if gc == nil {
		return
	}
	gc.g.mu.Lock()
	defer gc.g.mu.Unlock()
	*gc.v = v
}

// Add moves the level by d (negative is fine).
func (gc *GaugeChild) Add(d float64) {
	if gc == nil {
		return
	}
	gc.g.mu.Lock()
	defer gc.g.mu.Unlock()
	*gc.v += d
}

// Value reports the child's current level.
func (gc *GaugeChild) Value() float64 {
	if gc == nil {
		return 0
	}
	gc.g.mu.Lock()
	defer gc.g.mu.Unlock()
	return *gc.v
}

func (g *Gauge) merge(src Metric) {
	s := src.(*Gauge)
	s.mu.Lock()
	keys := s.sortedKeys()
	vals := make([]float64, len(keys))
	labels := make([][]string, len(keys))
	for i, k := range keys {
		vals[i] = *s.values[k]
		labels[i] = s.children[k]
	}
	s.mu.Unlock()
	for i := range keys {
		g.With(labels[i]...).Add(vals[i])
	}
}

func (g *Gauge) snapshot() MetricSnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	snap := MetricSnapshot{Name: g.desc.Name, Type: g.desc.Type, Help: g.desc.Help, Labels: g.desc.Labels}
	for _, k := range g.sortedKeys() {
		snap.Values = append(snap.Values, ValueSnapshot{
			LabelValues: g.children[k],
			Value:       *g.values[k],
		})
	}
	return snap
}

// Histogram is a fixed-bin histogram family backed by stats.Sketch.
type Histogram struct {
	family
	lo, hi float64
	bins   int
	values map[string]*stats.Sketch
}

// With returns the child for the given label values, creating it on
// first use. A nil Histogram returns a nil child, which records nothing.
func (h *Histogram) With(values ...string) *HistogramChild {
	if h == nil {
		return nil
	}
	key := h.childKey(values)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.values == nil {
		h.values = make(map[string]*stats.Sketch)
	}
	sk, ok := h.values[key]
	if !ok {
		sk = stats.NewSketch(h.lo, h.hi, h.bins)
		h.values[key] = sk
		h.children[key] = append([]string(nil), values...)
	}
	return &HistogramChild{h: h, sk: sk}
}

// Observe is shorthand for With().Observe(x) on a label-less histogram.
func (h *Histogram) Observe(x float64) { h.With().Observe(x) }

// HistogramChild is one labelled time series of a Histogram. Its
// methods are no-ops on a nil child.
type HistogramChild struct {
	h  *Histogram
	sk *stats.Sketch
}

// Observe records one observation.
func (hc *HistogramChild) Observe(x float64) {
	if hc == nil {
		return
	}
	hc.h.mu.Lock()
	defer hc.h.mu.Unlock()
	hc.sk.Add(x)
}

// ObserveN records n observations of x under one lock: n calls of
// Observe(x), for a caller that times a run of n events once and
// records their mean. n ≤ 0 records nothing.
func (hc *HistogramChild) ObserveN(x float64, n int) {
	if hc == nil || n <= 0 {
		return
	}
	hc.h.mu.Lock()
	defer hc.h.mu.Unlock()
	hc.sk.AddN(x, int64(n))
}

// Count reports the child's observation count.
func (hc *HistogramChild) Count() int64 {
	if hc == nil {
		return 0
	}
	hc.h.mu.Lock()
	defer hc.h.mu.Unlock()
	return hc.sk.Count()
}

func (h *Histogram) merge(src Metric) {
	s := src.(*Histogram)
	s.mu.Lock()
	keys := s.sortedKeys()
	sketches := make([]*stats.Sketch, len(keys))
	labels := make([][]string, len(keys))
	for i, k := range keys {
		// Copy under s.mu so a concurrent Observe on src cannot race the
		// merge (merge itself is called sequentially, but src may still
		// be live).
		cp := *s.values[k]
		cp.Counts = append([]int64(nil), s.values[k].Counts...)
		sketches[i] = &cp
		labels[i] = s.children[k]
	}
	s.mu.Unlock()
	for i, k := range keys {
		h.With(labels[i]...)
		h.mu.Lock()
		h.values[k].Merge(sketches[i])
		h.mu.Unlock()
	}
}

func (h *Histogram) snapshot() MetricSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := MetricSnapshot{Name: h.desc.Name, Type: h.desc.Type, Help: h.desc.Help, Labels: h.desc.Labels}
	for _, k := range h.sortedKeys() {
		sk := h.values[k]
		v := ValueSnapshot{
			LabelValues: h.children[k],
			Count:       sk.Count(),
			Sum:         sk.Sum,
		}
		if sk.Count() > 0 {
			// Empty sketches hold ±Inf min/max, which JSON cannot encode;
			// only populated children report their envelope and quantiles.
			v.Min, v.Max = sk.Min, sk.Max
			v.P50 = sk.Quantile(0.50)
			v.P90 = sk.Quantile(0.90)
			v.P99 = sk.Quantile(0.99)
		}
		snap.Values = append(snap.Values, v)
	}
	return snap
}
