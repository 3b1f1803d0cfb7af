package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "first registration")
	defer func() {
		if recover() == nil {
			t.Fatal("second registration of x_total did not panic")
		}
	}()
	r.NewGauge("x_total", "second registration, different type")
}

func TestEmptyNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("empty metric name did not panic")
		}
	}()
	r.NewCounter("", "nameless")
}

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("sched_items_total", "items", "path")
	c.With("adsl").Add(3)
	c.With("adsl").Inc()
	c.With("phone1").Inc()
	if got := c.With("adsl").Value(); got != 4 {
		t.Errorf("adsl = %d, want 4", got)
	}
	if got := c.With("phone1").Value(); got != 1 {
		t.Errorf("phone1 = %d, want 1", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "c")
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "c", "path")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	c.Inc() // zero values against one declared label
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("devices", "live devices")
	g.Set(3)
	g.Add(-1)
	if got := g.With().Value(); got != 2 {
		t.Errorf("gauge = %v, want 2", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "latency", 0, 10, 100)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100 * 9)
	}
	snap := h.snapshot()
	v := snap.Values[0]
	if v.Count != 100 {
		t.Fatalf("count = %d, want 100", v.Count)
	}
	if v.P50 < 4 || v.P50 > 5 {
		t.Errorf("p50 = %v, want ≈4.5", v.P50)
	}
	if v.Min != 0.09 || v.Max != 9 {
		t.Errorf("min/max = %v/%v, want 0.09/9", v.Min, v.Max)
	}
}

// TestObserveNIsNObserves holds ObserveN(x, n) to n calls of
// Observe(x): count, sum, bins, min and max. The values are dyadic, so
// x·n is the sum n additions reach and the sums compare exactly.
func TestObserveNIsNObserves(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "latency", 0, 10, 100, "way")
	batched, single := h.With("n"), h.With("1")
	for _, obs := range []struct {
		x float64
		n int
	}{{0.25, 128}, {3.5, 1}, {0, 7}, {-1, 3}, {12, 2}, {0.0078125, 1000}, {9.75, 0}, {5, -4}} {
		batched.ObserveN(obs.x, obs.n)
		for i := 0; i < obs.n; i++ {
			single.Observe(obs.x)
		}
	}
	got, want := batched.sk, single.sk
	if got.N != want.N || got.Sum != want.Sum || got.Min != want.Min || got.Max != want.Max {
		t.Errorf("ObserveN: count %d sum %v min %v max %v; n Observes: count %d sum %v min %v max %v",
			got.N, got.Sum, got.Min, got.Max, want.N, want.Sum, want.Min, want.Max)
	}
	for i := range want.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Errorf("bin %d: ObserveN %d, n Observes %d", i, got.Counts[i], want.Counts[i])
		}
	}

	empty := h.With("none")
	empty.ObserveN(1, 0)
	empty.ObserveN(1, -1)
	if empty.Count() != 0 || empty.sk.Sum != 0 {
		t.Errorf("ObserveN with n ≤ 0 recorded count %d sum %v, want nothing", empty.Count(), empty.sk.Sum)
	}
	var hc *HistogramChild
	hc.ObserveN(1, 5)
	if hc.Count() != 0 {
		t.Errorf("nil child counted %d, want 0", hc.Count())
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	// Label arity is not checked on a nil family: there is nothing to
	// check it against.
	c.Inc()
	c.Add(5)
	c.Add(-1)
	c.With("adsl").Inc()
	c.With("adsl").Add(7)
	g.Set(3)
	g.Add(-1)
	g.With("dl").Set(2)
	g.With("dl").Add(1)
	h.Observe(1.5)
	h.With("adsl").Observe(2.5)
	if cc := c.With("adsl"); cc != nil || cc.Value() != 0 {
		t.Errorf("nil counter child = %v reading %d, want nil reading 0", cc, cc.Value())
	}
	if gc := g.With(); gc != nil || gc.Value() != 0 {
		t.Errorf("nil gauge child = %v reading %v, want nil reading 0", gc, gc.Value())
	}
	if hc := h.With(); hc != nil || hc.Count() != 0 {
		t.Errorf("nil histogram child = %v counting %d, want nil counting 0", hc, hc.Count())
	}
	var (
		cc *CounterChild
		gc *GaugeChild
		hc *HistogramChild
	)
	cc.Inc()
	cc.Add(3)
	gc.Set(1)
	gc.Add(1)
	hc.Observe(1)
	if cc.Value() != 0 || gc.Value() != 0 || hc.Count() != 0 {
		t.Errorf("nil children read %d/%v/%d, want 0/0/0", cc.Value(), gc.Value(), hc.Count())
	}
}

// catalog builds one registry the way an instrumented shard would.
func catalog() *Registry {
	r := NewRegistry()
	r.NewCounter("a_items_total", "items", "path")
	r.NewGauge("a_level", "level")
	r.NewHistogram("a_seconds", "latency", 0, 10, 100, "path")
	return r
}

func TestMergeMatchesSingleRegistry(t *testing.T) {
	// One registry filled directly...
	whole := catalog()
	// ...versus the same observations split across two shards and merged.
	s1, s2 := catalog(), catalog()

	observe := func(r *Registry, path string, n int64, lvl, x float64) {
		r.metrics["a_items_total"].(*Counter).With(path).Add(n)
		r.metrics["a_level"].(*Gauge).Add(lvl)
		r.metrics["a_seconds"].(*Histogram).With(path).Observe(x)
	}
	type ob struct {
		path string
		n    int64
		lvl  float64
		x    float64
	}
	obs := []ob{{"adsl", 5, 1, 0.5}, {"adsl", 10, 2, 1.5}, {"phone1", 15, 3, 2.5}, {"phone1", 20, 4, 3.5}}
	for i, o := range obs {
		observe(whole, o.path, o.n, o.lvl, o.x)
		shard := s1
		if i >= 2 {
			shard = s2
		}
		observe(shard, o.path, o.n, o.lvl, o.x)
	}

	merged := catalog()
	merged.Merge(s1)
	merged.Merge(s2)

	var a, b bytes.Buffer
	if err := whole.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("merged dump differs from whole dump\n--- whole ---\n%s--- merged ---\n%s", a.String(), b.String())
	}
}

func TestMergeUnknownMetricPanics(t *testing.T) {
	dst := catalog()
	src := NewRegistry()
	src.NewCounter("not_in_dst_total", "stray")
	defer func() {
		if recover() == nil {
			t.Fatal("merging unknown metric did not panic")
		}
	}()
	dst.Merge(src)
}

func TestHandlerServesSnapshot(t *testing.T) {
	r := catalog()
	r.metrics["a_items_total"].(*Counter).With("adsl").Add(7)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{`"a_items_total"`, `"adsl"`, `"value": 7`} {
		if !strings.Contains(body, want) {
			t.Errorf("handler body missing %s:\n%s", want, body)
		}
	}
}

func TestRenderMarkdownGroupsAndSorts(t *testing.T) {
	r := catalog()
	md := RenderMarkdown(r)
	if !strings.HasPrefix(md, "# Metrics reference") {
		t.Error("markdown missing header")
	}
	if !strings.Contains(md, "## a\n") {
		t.Error("markdown missing subsystem section")
	}
	i1 := strings.Index(md, "`a_items_total`")
	i2 := strings.Index(md, "`a_level`")
	i3 := strings.Index(md, "`a_seconds`")
	if i1 < 0 || i2 < 0 || i3 < 0 || !(i1 < i2 && i2 < i3) {
		t.Errorf("metrics not rendered in sorted order: %d %d %d", i1, i2, i3)
	}
}
