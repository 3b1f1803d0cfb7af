package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeConfig is the production run shrunk to a one-second window: one
// set-up, one warm-up op, and microbenchmarks of a few calls each.
func smokeConfig(t *testing.T, trace bool) runConfig {
	return runConfig{
		seed: 42, seconds: 1, trace: trace,
		setups: 1, warmDiv: 1 << 20,
		layerBudget: time.Millisecond, layerCalls: 2,
		outDir: t.TempDir(),
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkEmitted holds a run's output to its declaration: every declared
// metric printed exactly once under a well-formed name, the result line
// carrying the same names and nothing else.
func checkEmitted(t *testing.T, printed string, res result, specs []metricSpec) {
	t.Helper()
	seen := map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(printed))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 3 {
			seen[f[0]]++
		}
	}
	for _, s := range specs {
		if !metricName.MatchString(s.Name) {
			t.Errorf("metric name %q is malformed", s.Name)
		}
		if seen[s.Name] != 1 {
			t.Errorf("metric %s printed %d times, want once", s.Name, seen[s.Name])
		}
		v, ok := res.Metrics[s.Name]
		if !ok {
			t.Errorf("metric %s missing from the result line", s.Name)
		} else if v.Unit != s.Unit {
			t.Errorf("metric %s has unit %q, declared %q", s.Name, v.Unit, s.Unit)
		}
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("result line carries %d metrics, declared %d", len(res.Metrics), len(specs))
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := runEndToEnd(context.Background(), &out, wl, smokeConfig(t, false), time.Now())
			if err != nil {
				t.Fatalf("run failed: %v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			checkEmitted(t, out.String(), res, endToEnd)
			for name, v := range res.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s = %v; an end-to-end metric is never zero", name, v.Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := smokeConfig(t, true)
			var out bytes.Buffer
			res, err := runTraced(context.Background(), &out, wl, cfg, time.Now())
			if err != nil {
				t.Fatalf("run failed: %v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%t failed=%d\n%s", res.Correct, res.Failed, out.String())
			}
			checkEmitted(t, out.String(), res, perLayer)

			spans := readSpans(t, filepath.Join(cfg.outDir, "spans-"+wl.name+".jsonl"))
			if len(spans) == 0 {
				t.Fatal("traced run wrote no spans")
			}
			ids := map[int64]bool{}
			for _, s := range spans {
				ids[s.ID] = true
			}
			for _, s := range spans {
				if s.Parent != 0 && !ids[s.Parent] {
					t.Errorf("span %d (%s %s) names parent %d, which was not recorded", s.ID, s.Layer, s.Name, s.Parent)
				}
				if s.End < s.Start {
					t.Errorf("span %d ends before it starts", s.ID)
				}
			}
			var rows float64
			for d := depthClient; d < numDepths; d++ {
				rows += res.Metrics["trace."+depthNames[d]+"_self_ms"].Value
			}
			a := attribute(withDepths(spans))
			if a.orphans != 0 {
				t.Errorf("%d spans belong to no recorded op", a.orphans)
			}
			if a.ops == 0 || math.Abs(rows-a.opMS) > 0.1*a.opMS {
				t.Errorf("per-layer self times sum to %.3f ms, op wall time is %.3f ms over %d ops", rows, a.opMS, a.ops)
			}
		})
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("span file does not parse: %v", err)
		}
		spans = append(spans, s)
	}
	return spans
}

// withDepths restores the depth a span file carries as its layer name.
func withDepths(spans []span) []span {
	for i := range spans {
		for d, name := range depthNames {
			if spans[i].Layer == name {
				spans[i].depth = depth(d)
			}
		}
	}
	return spans
}

// TestBenchmarkJSON holds the committed contract to what the binary
// declares: a metric or workload added on one side only fails here.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(doc.Command, want) {
		t.Errorf("command = %v, want %v", doc.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(doc.Paths, want) {
		t.Errorf("paths = %v, want %v", doc.Paths, want)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the binary's default window is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the binary has %d", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.name || doc.Workloads[i].Why != wl.why {
			t.Errorf("workload %d is %q (%q), the binary has %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, wl.name, wl.why)
		}
		if len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("%s: rationale must be one line of at most 200 characters", wl.name)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, the binary emits %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v, the binary emits %+v", doc.PerLayer, perLayer)
	}
}

// steady builds a window of n back-to-back ops whose duration is
// scaled by slow from the midpoint on.
func steady(n int, op time.Duration, slow float64) window {
	var w window
	var at time.Duration
	for i := 0; i < n; i++ {
		d := op
		if i >= n/2 {
			d = time.Duration(float64(op) * slow)
		}
		w.samples = append(w.samples, sample{start: at, end: at + d})
		at += d
	}
	w.wall = at
	return w
}

func TestDriftGuard(t *testing.T) {
	w := steady(100, 10*time.Millisecond, 1)
	if d := w.driftPct(); math.Abs(d) > 0.5 {
		t.Errorf("a steady window drifts %.2f %%", d)
	}
	// A workload whose state grows: the second half of the ops takes
	// twice as long, so throughput halves.
	w = steady(100, 10*time.Millisecond, 2)
	if d := w.driftPct(); d > -40 || d < -60 {
		t.Errorf("throughput halved mid-window, drift = %.2f %%", d)
	}
	drifts := map[string][]float64{}
	for _, wl := range workloads {
		drifts[wl.name] = []float64{1, -2, 3}
	}
	if err := checkDrift(drifts); err != nil {
		t.Errorf("steady workloads tripped the guard: %v", err)
	}
	drifts["permit_batch"] = []float64{-23, -9, -20}
	if err := checkDrift(drifts); err == nil {
		t.Error("a workload drifting −20 % passed the guard")
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25 − 2.75) ÷ 5.5 = 1", got)
	}
	// statistics.quantiles([10, 11, 12, 14, 20], n=4) == [10.5, 12.0, 17.0]
	if got, want := quartileSpread([]float64{10, 11, 12, 14, 20}), 6.5/12; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestAttribute(t *testing.T) {
	ms := func(x int64) int64 { return x * 1e6 }
	spans := []span{
		{ID: 1, Op: 1, Start: 0, End: ms(100), depth: depthClient},
		{ID: 2, Parent: 1, Op: 1, Start: ms(10), End: ms(90), depth: depthProxy},
		// Two route fetches overlap from 40 to 60: that time counts once.
		{ID: 3, Parent: 2, Op: 1, Start: ms(20), End: ms(60), depth: depthHop},
		{ID: 4, Parent: 2, Op: 1, Start: ms(40), End: ms(80), depth: depthHop},
		// The server is open for 20 ms and spends half of it in writes.
		{ID: 5, Parent: 3, Op: 1, Start: ms(30), End: ms(50), Wait: ms(10), depth: depthServer},
		// A cancelled replica outlives the op by 30 ms.
		{ID: 6, Parent: 1, Op: 1, Start: ms(95), End: ms(130), depth: depthHop},
		// A span of an op whose root was never recorded.
		{ID: 7, Parent: 99, Op: 98, Start: 0, End: ms(5), depth: depthHop},
	}
	a := attribute(spans)
	want := [numDepths]float64{15, 20, 55, 10}
	for d, w := range want {
		if math.Abs(a.selfMS[d]-w) > 1e-9 {
			t.Errorf("%s self = %v ms, want %v", depthNames[d], a.selfMS[d], w)
		}
	}
	if a.ops != 1 || a.opMS != 100 || a.orphans != 1 || math.Abs(a.overrunPC-30) > 1e-9 {
		t.Errorf("ops=%d opMS=%v orphans=%d overrun=%v %%", a.ops, a.opMS, a.orphans, a.overrunPC)
	}
}
