package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"threegol/internal/stats"
)

// The streaming MapReduce must be byte-identical to the all-resident
// reference fold at every worker count: same accumulator (DeepEqual over
// counters, float totals, sketch counts, load bins), same report JSON,
// same metrics dump, same event stream. This is the guarantee that lets
// production paths stream (O(workers) resident accumulators) while tests
// and goldens keep their materialise-then-fold semantics.
func TestStreamingMergeMatchesResident(t *testing.T) {
	// Accumulator identity on the plain config: DeepEqual covers every
	// counter, float total, sketch count and load bin exactly. (The
	// instrumented config below is compared byte-wise instead, because
	// the flight recorder holds a func-typed time source, which
	// DeepEqual never reports equal.)
	plain := testConfig().withDefaults()
	plainShards := Shards(plain)
	simPlain := func(sh Shard) *Result { return simulateShard(plain, sh) }
	want := mapReduceResident(plainShards, 1, simPlain)
	for _, workers := range []int{1, 4, 16} {
		if got := MapReduce(plainShards, workers, simPlain); !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: streaming fold differs from the resident reference accumulator", workers)
		}
		if got := mapReduceResident(plainShards, workers, simPlain); !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: resident fold differs from its workers=1 run", workers)
		}
	}

	// Serialisation identity on the fully instrumented config: report
	// JSON, metrics dump and event stream must match byte for byte
	// between the streaming and resident folds at every worker count.
	cfg := testConfig()
	cfg.Metrics = true
	cfg.Events = true
	cfg = cfg.withDefaults() // Run applies this before MapReduce; simulateShard expects it
	shards := Shards(cfg)
	sim := func(sh Shard) *Result { return simulateShard(cfg, sh) }

	snapshot := func(res *Result) (report, metrics, events []byte) {
		t.Helper()
		var err error
		if report, err = json.Marshal(res.Report()); err != nil {
			t.Fatal(err)
		}
		if metrics, err = json.Marshal(res.MetricsRegistry().Snapshot()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.EventLog().WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return report, metrics, buf.Bytes()
	}

	wantReport, wantMetrics, wantEvents := snapshot(mapReduceResident(shards, 1, sim))
	if len(wantEvents) == 0 {
		t.Fatal("reference fold produced an empty event stream")
	}
	for _, workers := range []int{1, 4, 16} {
		report, metrics, events := snapshot(MapReduce(shards, workers, sim))
		if !bytes.Equal(report, wantReport) {
			t.Errorf("workers=%d: streaming report JSON drifted", workers)
		}
		if !bytes.Equal(metrics, wantMetrics) {
			t.Errorf("workers=%d: streaming metrics dump drifted", workers)
		}
		if !bytes.Equal(events, wantEvents) {
			t.Errorf("workers=%d: streaming event stream drifted (%d vs %d bytes)",
				workers, len(events), len(wantEvents))
		}
	}
}

// mapReduceResident is the all-resident reference fold: simulate every
// shard, keep every accumulator, fold at the end. It exists so tests
// can pin the streaming MapReduce byte-identical to the naive
// materialise-then-fold semantics; production paths never use it.
func mapReduceResident[A Mergeable[A]](shards []Shard, workers int, simulate func(Shard) A) A {
	var zero A
	if len(shards) == 0 {
		return zero
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	out := make([]A, len(shards))
	if workers == 1 {
		for i, sh := range shards {
			out[i] = simulate(sh)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					out[i] = simulate(shards[i])
				}
			}()
		}
		for i := range shards {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	acc := out[0]
	for _, a := range out[1:] {
		acc.Merge(a)
	}
	return acc
}

// innerLoopFixture builds a warmed shard — scratch columns sized, queue
// and sort buffers grown to the day's session count, RNG advanced past
// population generation — so that measuring runDay isolates the
// steady-state per-home inner loop.
func innerLoopFixture(homes int) (cfg Config, sh Shard, run func(day int)) {
	cfg = Config{Homes: homes, Days: 1, Shards: 1, Seed: 1}.withDefaults()
	sh = Shards(cfg)[0]
	sc := cfg.Scenario
	rng := newShardRNG(sh)
	sizeDist := stats.LogNormalFromMoments(sc.MeanVideoBytes, sc.MeanVideoBytes*0.9)
	g3 := float64(sc.Devices) * sc.PhoneBits
	now := new(float64)
	res := newResult(cfg, sh, func() float64 { return *now })
	st := getScratch(sh.Homes, sc.HistoryMonths)
	genHomes(cfg, sh, rng, st, res)
	runDay(cfg, sh, 0, rng, st, res, now, sizeDist, g3) // warm queue/sorted to capacity
	return cfg, sh, func(day int) {
		runDay(cfg, sh, day, rng, st, res, now, sizeDist, g3)
	}
}

// BenchmarkFleetInnerLoop times one simulated day over a warmed scratch:
// the engine's hot path with setup amortised away. With -benchmem it
// must report 0 allocs/op — scripts/bench.sh gates on exactly that.
func BenchmarkFleetInnerLoop(b *testing.B) {
	const homes = 2000
	_, _, run := innerLoopFixture(homes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
	b.ReportMetric(float64(homes)*float64(b.N)/b.Elapsed().Seconds(), "homes/s")
}

// The allocation contract as a plain test, so `go test` catches a
// regression without anyone reading benchmark output. Skipped under the
// race detector, which instruments allocations.
func TestInnerLoopAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, _, run := innerLoopFixture(2000)
	day := 1
	allocs := testing.AllocsPerRun(10, func() {
		run(day)
		day++
	})
	if allocs != 0 {
		t.Errorf("per-home inner loop allocates %.1f times per day, want 0", allocs)
	}
}
