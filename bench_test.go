// Benchmarks of the repository as a whole. BenchmarkExperiments runs
// the paper's evaluation — internal/experiments' table, one
// sub-benchmark per experiment — and reports every row as a custom
// metric, so `go test -bench=Experiments` regenerates it in one sweep;
// under -short the live experiments, which drive real TCP over shaped
// loopback connections or the live scheduler for seconds each, are
// skipped. BenchmarkFleetThroughput measures the fleet engine.
package threegol_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"threegol/internal/experiments"
	"threegol/internal/fleet"
)

// BenchmarkExperiments runs each experiment of the table under
// experiments.DefaultConfig and reports each of its rows as
// <key>_<unit>, whitespace replaced by underscores (a metric unit may
// hold none).
func BenchmarkExperiments(b *testing.B) {
	cfg := experiments.DefaultConfig()
	for _, e := range experiments.Table {
		b.Run(e.Name, func(b *testing.B) {
			if e.Live && testing.Short() {
				b.Skip("live experiment; skipped under -short")
			}
			var res []experiments.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = experiments.Run([]experiments.Experiment{e}, cfg); err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range res[0].Rows {
				b.ReportMetric(r.Value, strings.Join(strings.Fields(r.Key+"_"+r.Unit), "_"))
			}
		})
	}
}

// BenchmarkFleetThroughput measures the sharded fleet engine's
// simulation rate (homes/sec) as the worker pool grows: 1, 4 and
// NumCPU shards, each shard on its own worker. The merged report is
// identical at every scale for a fixed (homes, shards, seed) — this
// benchmark varies shards *with* workers because it measures
// throughput, not the determinism contract (internal/fleet's golden
// test pins that).
func BenchmarkFleetThroughput(b *testing.B) {
	const homes = 100_000
	widths := []int{1, 4}
	if n := runtime.NumCPU(); n >= 16 {
		widths = append(widths, 16)
	}
	if n := runtime.NumCPU(); n > 4 && n != 16 {
		widths = append(widths, n)
	}
	for _, n := range widths {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			cfg := fleet.Config{Homes: homes, Days: 1, Shards: n, Seed: 1}
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(cfg, n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(homes)*float64(b.N)/b.Elapsed().Seconds(), "homes/s")
		})
	}
}
