// Package fleet is the sharded, deterministic fleet-simulation engine
// that scales the paper's §6 trace-driven evaluation from one DSLAM to
// city scale. A synthetic population of homes — each a DSL line drawn
// from a loop-length population, a handful of 3G phones with
// estimator-derived onloading quotas, and diurnal video demand — is
// partitioned into logical shards. Every shard runs on its own time
// cursor with an independent, seed-derived RNG stream
// (rand.New(rand.NewSource(seed ^ shardID))), and per-shard results
// merge-reduce through Mergeable accumulators in shard order — a
// streaming fold that never holds more than O(workers) accumulators
// resident (see MapReduce). The per-shard engine keeps home state in
// struct-of-arrays columns inside pooled scratch, so its inner loop
// performs no heap allocations (see home.go); PERFORMANCE.md documents
// the resulting envelope and how to re-measure it.
//
// The engine is deterministic across worker counts: Run(cfg, 1) and
// Run(cfg, 16) produce bit-identical merged output, because the shard
// partition and every shard's RNG stream depend only on Config, and the
// fold order is fixed. Workers only decide how many shards simulate
// concurrently.
package fleet

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"threegol/internal/dsl"
	"threegol/internal/quota"
)

// Scenario sets the per-home onloading parameters; zero values select
// the paper's §6 operating point.
type Scenario struct {
	// Devices is the number of 3G phones per household (paper: 2).
	Devices int
	// PhoneBits is one device's usable 3G rate during a boost
	// (paper: 2.4 Mbps HSPA+).
	PhoneBits float64
	// MinBoostBytes is the smallest video worth boosting (paper:
	// 750 KB).
	MinBoostBytes float64
	// ViewerFrac is the fraction of homes with ≥1 video per day
	// (paper: 0.68).
	ViewerFrac float64
	// MeanVideoBytes is the average video size (paper: 50 MB).
	MeanVideoBytes float64
	// Plant is the loop population the homes' DSL lines are drawn
	// from; the zero value selects urban ADSL2+ with 1.2 km loops.
	Plant dsl.Population
	// Estimator converts each device's monthly free-capacity history
	// into a daily allowance; the zero value is the paper's τ=5, α=4.
	Estimator quota.Estimator
	// HistoryMonths of synthetic usage per device (0 selects 18).
	HistoryMonths int
	// FixedDailyBudgetBytes, when positive, bypasses the estimator and
	// grants every device this daily allowance (the paper's fixed
	// 20 MB/device scenario).
	FixedDailyBudgetBytes float64
	// BackhaulMbpsPer18k is the covering towers' backhaul per 18,000
	// homes (paper: 2 towers × 40 Mbps per DSLAM); the engine scales
	// it linearly with population.
	BackhaulMbpsPer18k float64
}

func (s Scenario) withDefaults() Scenario {
	if s.Devices <= 0 {
		s.Devices = 2
	}
	if s.PhoneBits <= 0 {
		s.PhoneBits = 2.4e6
	}
	if s.MinBoostBytes <= 0 {
		s.MinBoostBytes = 750 * 1024
	}
	if s.ViewerFrac <= 0 {
		s.ViewerFrac = 0.68
	}
	if s.MeanVideoBytes <= 0 {
		s.MeanVideoBytes = 50 * (1 << 20)
	}
	if s.Plant.MeanLoopMetres <= 0 {
		s.Plant = dsl.Population{Technology: dsl.ADSL2Plus, MeanLoopMetres: 1200}
	}
	if s.HistoryMonths <= 0 {
		s.HistoryMonths = 18
	}
	if s.BackhaulMbpsPer18k <= 0 {
		s.BackhaulMbpsPer18k = 2 * 40
	}
	return s
}

// Config describes one fleet run. The triple (Homes, Shards, Seed) pins
// the population exactly; worker count is deliberately NOT part of the
// config so that parallelism can never change results.
type Config struct {
	// Homes is the total population size.
	Homes int
	// Days of demand to simulate (0 selects 1).
	Days int
	// Shards is the number of logical partitions (0 selects 8). Shard
	// i simulates its homes with rand.NewSource(Seed ^ i); changing
	// Shards changes the streams, so it is a population parameter, not
	// a performance knob — use the workers argument of Run for that.
	Shards int
	// Seed derives every shard's RNG stream.
	Seed int64
	// BinSeconds is the load-series bin width (0 selects 300).
	BinSeconds float64
	// Scenario holds the onloading parameters.
	Scenario Scenario
	// Metrics enables the engine's obs instrumentation: each shard fills
	// a private registry, merged in shard order alongside Result. Off by
	// default — it roughly doubles the accumulator's allocation count.
	Metrics bool
	// Events enables the flight recorder: each shard fills a private
	// eventlog.Log (IDs derived from Seed and the shard index, times
	// from the shard's engine time cursor), merged in shard order alongside
	// Result. The merged stream is bit-identical for every worker
	// count. Off by default — a trace per session is far heavier than
	// the counters.
	Events bool
}

func (c Config) withDefaults() Config {
	if c.Days <= 0 {
		c.Days = 1
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.BinSeconds <= 0 {
		c.BinSeconds = 300
	}
	c.Scenario = c.Scenario.withDefaults()
	return c
}

// Shard is one deterministic unit of work: a contiguous run of homes
// and the seed of its private RNG stream.
type Shard struct {
	// Index is the shard's position in the fold order.
	Index int
	// Seed is cfg.Seed ^ Index — the sanctioned per-shard stream
	// derivation (see internal/lint's randsource analyzer).
	Seed int64
	// First is the global ID of the shard's first home.
	First int
	// Homes is the number of homes in the shard.
	Homes int
}

// Shards partitions cfg.Homes into cfg.Shards near-equal contiguous
// ranges. The partition depends only on the config, never on worker
// count, so every run over the same config simulates identical shards.
func Shards(cfg Config) []Shard {
	cfg = cfg.withDefaults()
	n := cfg.Shards
	if n > cfg.Homes {
		n = cfg.Homes
	}
	if n < 1 {
		n = 1
	}
	out := make([]Shard, n)
	next := 0
	for i := range out {
		// Homes split as evenly as possible: the first Homes%n shards
		// carry one extra.
		size := cfg.Homes / n
		if i < cfg.Homes%n {
			size++
		}
		out[i] = Shard{Index: i, Seed: cfg.Seed ^ int64(i), First: next, Homes: size}
		next += size
	}
	return out
}

// Mergeable is the merge-reduce contract: each shard fills one
// accumulator and the engine folds them in shard order. Merge must fold
// src into the receiver; it is never called concurrently.
type Mergeable[A any] interface {
	Merge(src A)
}

// MapReduce simulates every shard on a pool of `workers` goroutines
// (workers ≤ 0 selects 1; the pool never exceeds the shard count) and
// folds the per-shard accumulators in ascending shard order. Because
// each accumulator is built single-threaded from a shard-private RNG
// and the fold order is fixed, the reduced value is bit-identical for
// every worker count. It returns the zero A when shards is empty.
//
// The fold is streaming: each shard's accumulator merges into the
// running total as soon as every lower-indexed shard has merged, and is
// then unreachable. A run therefore never holds more than
// O(workers) shard accumulators resident — not O(shards) — which is
// what lets a million-home run over hundreds of shards fit in a small,
// flat memory envelope. Workers claim shard indexes from a shared
// atomic counter (work stealing), so a straggler shard never idles the
// rest of the pool; because indexes are claimed in ascending order, at
// most `workers` results can be ahead of the fold cursor, which bounds
// the out-of-order pending set.
func MapReduce[A Mergeable[A]](shards []Shard, workers int, simulate func(Shard) A) A {
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
	if workers == 1 {
		acc := simulate(shards[0])
		for _, sh := range shards[1:] {
			acc.Merge(simulate(sh))
		}
		return acc
	}
	type done struct {
		idx int
		res A
	}
	results := make(chan done, workers)
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				results <- done{idx: i, res: simulate(shards[i])}
			}
		}()
	}
	// Chain-fold completed shards in index order; results that finish
	// ahead of the fold cursor wait in pending (≤ workers entries).
	pending := make(map[int]A, workers)
	var acc A
	fold := 0
	for received := 0; received < len(shards); received++ {
		d := <-results
		pending[d.idx] = d.res
		for {
			r, ok := pending[fold]
			if !ok {
				break
			}
			delete(pending, fold)
			if fold == 0 {
				acc = r
			} else {
				acc.Merge(r)
			}
			fold++
		}
	}
	return acc
}

// Run simulates the configured fleet on `workers` goroutines and
// returns the merged result. The output depends only on cfg.
func Run(cfg Config, workers int) (*Result, error) {
	if cfg.Homes <= 0 {
		return nil, fmt.Errorf("fleet: config needs Homes > 0, got %d", cfg.Homes)
	}
	cfg = cfg.withDefaults()
	res := MapReduce(Shards(cfg), workers, func(sh Shard) *Result {
		return simulateShard(cfg, sh)
	})
	return res, nil
}

// newShardRNG is the engine's sanctioned stream construction, kept in
// one place so the derivation in Shard.Seed and the lint fixture stay
// in sync.
func newShardRNG(sh Shard) *rand.Rand {
	return rand.New(rand.NewSource(sh.Seed))
}
