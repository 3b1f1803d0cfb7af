package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"threegol/internal/stats"
)

// metricSpec declares one metric the way BENCHMARK.json lists it. Bound
// is the share of the parent's median by which an end-to-end metric may
// worsen; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the five metrics every workload reports. An op is one
// completed and verified user transaction. The bounds on the four
// time-based metrics are the widest the contract allows: on the 2-vCPU
// sizing sandbox the machine's own speed wanders by ±10 % over minutes,
// and the two CPU-bound workloads report it (README, Repeatability).
var endToEnd = []metricSpec{
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_MB_per_op", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of the traced run, in README order. The
// layer is the package name before the dot; "bench" and "trace" are the
// harness's own bookkeeping and span attribution.
var perLayer = []metricSpec{
	{Name: "core.goodput_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.newhome_ms", Unit: "ms", Better: "lower"},
	{Name: "hls.startup_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "hls.origin_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "hls.player_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "hls.parse_us", Unit: "us", Better: "lower"},
	{Name: "netem.reserve_ns", Unit: "ns", Better: "lower"},
	{Name: "netem.conn_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "netem.pace_err_pct", Unit: "%", Better: "lower"},
	{Name: "proxy.relay_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "proxy.relay_alloc_KB_per_MB", Unit: "KB/MB", Better: "lower"},
	{Name: "proxy.req_us", Unit: "us", Better: "lower"},
	{Name: "transfer.download_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "transfer.download_alloc_MB_per_MB", Unit: "MB/MB", Better: "lower"},
	{Name: "transfer.upload_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "transfer.upload_alloc_KB_per_MB", Unit: "KB/MB", Better: "lower"},
	{Name: "transfer.cache_wait_us", Unit: "us", Better: "lower"},
	{Name: "upload.ingest_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "scheduler.run_us_per_item", Unit: "us", Better: "lower"},
	{Name: "scheduler.dup_ratio", Unit: "ratio", Better: "lower"},
	{Name: "scheduler.waste_frac", Unit: "ratio", Better: "lower"},
	{Name: "permit.decide_ns", Unit: "ns", Better: "lower"},
	{Name: "permitplane.shardof_ns", Unit: "ns", Better: "lower"},
	{Name: "permitplane.decide_us", Unit: "us", Better: "lower"},
	{Name: "permitplane.decide_durable_us", Unit: "us", Better: "lower"},
	{Name: "permitplane.record_grant_us", Unit: "us", Better: "lower"},
	{Name: "permitplane.record_deny_us", Unit: "us", Better: "lower"},
	{Name: "permitplane.serve_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "permitplane.batch_alloc_KB", Unit: "KB", Better: "lower"},
	{Name: "permitplane.batch_encode_us", Unit: "us", Better: "lower"},
	{Name: "permitplane.batch_decode_us", Unit: "us", Better: "lower"},
	{Name: "permitplane.serve_single_us", Unit: "us", Better: "lower"},
	{Name: "permitplane.cache_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "wal.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.replay_ms_per_100k", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "trace.client_self_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.proxy_self_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.hop_self_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.server_self_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overrun_pct", Unit: "%", Better: "lower"},
	{Name: "bench.op_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "bench.ops", Unit: "count", Better: "higher"},
	{Name: "bench.failed_ops", Unit: "count", Better: "lower"},
	{Name: "bench.drift_pct", Unit: "%", Better: "lower"},
	{Name: "bench.peak_rss_MB", Unit: "MB", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// maxDriftPct is the stationarity guard: a workload whose second-half
// throughput differs from its first half by more than this is measuring
// run length, not code.
const maxDriftPct = 10

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// values collects measured numbers by metric name, with the sample
// count each was computed from (0 when a count makes no sense).
type values map[string]measured

type measured struct {
	v    float64
	n    int
	note string
}

func (vs values) set(name string, v float64, n int) { vs.setNote(name, v, n, "") }

func (vs values) setNote(name string, v float64, n int, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	vs[name] = measured{v: v, n: n, note: note}
}

// emit prints every spec'd metric by name with unit and sample count,
// and returns them in the result shape. A spec without a measured value
// is a harness bug and is reported as an error.
func emit(w io.Writer, specs []metricSpec, vs values) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		m, ok := vs[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		out[s.Name] = metricValue{Value: m.v, Unit: s.Unit}
		fmt.Fprintf(w, "  %-36s %14.4f %-6s", s.Name, m.v, s.Unit)
		if m.n > 0 {
			fmt.Fprintf(w, " n=%d", m.n)
		}
		if m.note != "" {
			fmt.Fprintf(w, "  (%s)", m.note)
		}
		fmt.Fprintln(w)
	}
	return out, nil
}

// writeResult prints the final JSON line.
func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method) — the
// spread the benchmark contract is checked with. It needs two values.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		const n = 4
		m := len(s)
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
