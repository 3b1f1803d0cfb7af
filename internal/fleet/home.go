package fleet

import (
	"math/rand"
	"sync"

	"threegol/internal/diurnal"
	"threegol/internal/stats"
	"threegol/internal/traces"
)

// This file is the engine's hot path: per-home state lives in
// struct-of-arrays form inside a pooled per-shard scratch, and a day of
// demand is generated into a flat session buffer and sorted, instead of
// scheduling one closure per session on an event heap. After the scratch
// pool warms up the per-home inner loop (genHomes + runDay) performs no
// heap allocations at all — BenchmarkFleetInnerLoop and
// TestInnerLoopAllocationFree pin that, and scripts/bench.sh gates it.
//
// Determinism is unchanged from the event-heap engine: the RNG draw
// order per home (line, viewer flag, one device history per device;
// then per day: videos, (hour, size) per video) is identical, and
// sessions execute in ascending (time, generation order) — exactly the
// order the simclock heap popped them in — so the accumulated floats
// are bit-identical to the previous engine, not merely statistically
// equivalent.

// homeSoA is the struct-of-arrays per-home state of one shard: column i
// across every slice describes home i. Splitting the columns keeps the
// day loop's working set dense (the reset loop touches only four
// columns) and makes the state trivially poolable.
type homeSoA struct {
	// Static per-home draws, written once by genHomes.
	dslBits     []float64 // downlink sync rate (bits/s), floored at 256 kbps
	dailyBudget []float64 // pooled device allowance (bytes/day)
	viewer      []bool

	// Day-scoped state, reset at each midnight by runDay.
	remaining []float64 // budget left today (bytes)
	dslSec    []float64 // today's latency over DSL alone
	boostSec  []float64 // today's latency with budgeted onloading
	sessions  []int32   // today's session count
}

// session is one generated video request, queued for in-order execution.
// seq is the generation index within the shard-day: sorting by
// (at, seq) reproduces the event heap's (time, schedule order) pop
// sequence exactly.
type session struct {
	at   float64 // absolute virtual time (seconds since run start)
	size float64 // video bytes
	home int32   // index into the shard's homeSoA columns
	seq  int32
}

// shardScratch is the pooled per-shard working set: the SoA home state,
// the day's session queue (plus the counting-sort scatter target and
// bucket counters), and the per-device free-capacity buffer the MNO
// sampler fills. One scratch is checked out per simulated shard and
// returned when the shard's accumulator is complete; nothing in it
// outlives the shard, so reuse can never couple two shards.
type shardScratch struct {
	homes  homeSoA
	queue  []session
	sorted []session
	counts []int32
	free   []float64
}

var scratchPool = sync.Pool{New: func() any { return new(shardScratch) }}

// getScratch checks a scratch out of the pool, sized for `homes` homes
// and `months` of device history. Slices are grown geometrically and
// kept across uses, so a warm pool serves any steady-state shard size
// without allocating.
func getScratch(homes, months int) *shardScratch {
	st := scratchPool.Get().(*shardScratch)
	st.homes.dslBits = resize(st.homes.dslBits, homes)
	st.homes.dailyBudget = resize(st.homes.dailyBudget, homes)
	st.homes.viewer = resize(st.homes.viewer, homes)
	st.homes.remaining = resize(st.homes.remaining, homes)
	st.homes.dslSec = resize(st.homes.dslSec, homes)
	st.homes.boostSec = resize(st.homes.boostSec, homes)
	st.homes.sessions = resize(st.homes.sessions, homes)
	st.free = resize(st.free, months)
	st.counts = resize(st.counts, daySeconds)
	st.queue = st.queue[:0]
	return st
}

// resize returns s with length n, reusing its backing array when the
// capacity suffices. Contents are unspecified: every engine column is
// written before it is read.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// daySeconds is the fold period of the load series.
const daySeconds = 24 * 3600

// genHomes draws the shard's population into the scratch columns. The
// draw order per home (line, viewer flag, one MNO history per device) is
// part of the engine's determinism contract: it must not depend on
// anything outside (cfg, home index, rng state).
func genHomes(cfg Config, sh Shard, rng *rand.Rand, st *shardScratch, res *Result) {
	sc := cfg.Scenario
	for i := 0; i < sh.Homes; i++ {
		line := sc.Plant.SampleOne(rng)
		down, _ := line.SyncRates()
		if down < 256e3 {
			down = 256e3 // a line below this would not carry video at all
		}
		st.homes.dslBits[i] = down
		st.homes.viewer[i] = rng.Float64() < sc.ViewerFrac
		var budget, baseMobileDaily float64
		for d := 0; d < sc.Devices; d++ {
			capB, usedFrac := traces.SampleMNOFree(rng, sc.HistoryMonths, 0, st.free)
			baseMobileDaily += capB * usedFrac / 30
			if sc.FixedDailyBudgetBytes > 0 {
				budget += sc.FixedDailyBudgetBytes
			} else {
				budget += sc.Estimator.DailyAllowance(st.free)
			}
		}
		st.homes.dailyBudget[i] = budget
		res.observeHome(st.homes.viewer[i], budget, baseMobileDaily, cfg.Days)
	}
}

// runDay simulates one day of the shard: reset the day columns, generate
// every viewer's sessions into the queue, sort by (time, generation
// order), execute in order against the remaining budgets, then fold the
// per-home speedups. now is the engine's time cursor — the flight
// recorder's time source when events are on. sizeDist and g3 are hoisted
// by the caller so the loop stays allocation-free.
func runDay(cfg Config, sh Shard, day int, rng *rand.Rand, st *shardScratch, res *Result, now *float64, sizeDist stats.LogNormal, g3 float64) {
	sc := cfg.Scenario
	dayStart := float64(day) * daySeconds
	st.queue = st.queue[:0]
	seq := int32(0)
	for i := 0; i < sh.Homes; i++ {
		st.homes.remaining[i] = st.homes.dailyBudget[i]
		st.homes.dslSec[i], st.homes.boostSec[i], st.homes.sessions[i] = 0, 0, 0
		if !st.homes.viewer[i] {
			continue
		}
		n := traces.SampleVideosPerDay(rng)
		for v := 0; v < n; v++ {
			at := dayStart + traces.SampleHour(rng, diurnal.Wired)*3600
			size := sizeDist.Sample(rng)
			st.queue = append(st.queue, session{at: at, size: size, home: int32(i), seq: seq})
			seq++
		}
	}
	// Sessions run in (time, generation-order) sequence — the same
	// cross-home interleaving a city-wide trace replay would see, and
	// the same total order the event-heap engine produced.
	st.sortQueue(dayStart)
	for _, s := range st.queue {
		*now = s.at
		i := s.home
		m := BoostModel{DSLBits: st.homes.dslBits[i], G3Bits: g3, MinBoostBytes: sc.MinBoostBytes}
		b := m.Apply(s.size, st.homes.remaining[i])
		st.homes.remaining[i] -= b.OnloadedBytes
		st.homes.dslSec[i] += b.DSLSeconds
		st.homes.boostSec[i] += b.BoostSeconds
		st.homes.sessions[i]++
		res.recordSession(sh.First+int(i), m, s.at-dayStart, s.size, b)
	}
	*now = dayStart + daySeconds
	for i := 0; i < sh.Homes; i++ {
		if st.homes.sessions[i] > 0 {
			sp := st.homes.dslSec[i] / st.homes.boostSec[i]
			res.Speedups.Add(sp)
			res.metrics.Speedup.Observe(sp)
		}
	}
}

// sortQueue orders the day's sessions by (at, seq) — the engine's
// execution-order contract — in near-linear time: a stable counting
// sort on the whole second (sessions lie in [dayStart, dayStart +
// daySeconds)), then an insertion sort inside each one-second bucket.
// Bucket order is a coarsening of the (at, seq) order, counting-sort
// scatter preserves generation order inside a bucket, and the in-bucket
// sort refines to the exact key, so the result is element-for-element
// the order a comparison sort (or the old event heap) would produce —
// at a fraction of the comparison and cache cost, which dominated the
// profile at city scale. No step allocates once the scratch is warm.
func (st *shardScratch) sortQueue(dayStart float64) {
	n := len(st.queue)
	if n <= 1 {
		return
	}
	st.sorted = resize(st.sorted, n)
	counts := st.counts
	for b := range counts {
		counts[b] = 0
	}
	for i := range st.queue {
		counts[bucketOf(st.queue[i].at, dayStart)]++
	}
	var sum int32
	for b := range counts {
		c := counts[b]
		counts[b] = sum
		sum += c
	}
	for i := range st.queue {
		b := bucketOf(st.queue[i].at, dayStart)
		st.sorted[counts[b]] = st.queue[i]
		counts[b]++
	}
	// counts[b] now holds bucket b's end offset; refine each bucket.
	var start int32
	for b := range counts {
		end := counts[b]
		if end-start > 1 {
			insertionSortSessions(st.sorted[start:end])
		}
		start = end
	}
	st.queue, st.sorted = st.sorted, st.queue
}

// bucketOf maps a session time to its one-second counting bucket,
// clamped into the day (generation guarantees in-day times; the clamp
// makes float edge cases safe rather than out-of-bounds).
func bucketOf(at, dayStart float64) int {
	b := int(at - dayStart)
	if b < 0 {
		return 0
	}
	if b >= daySeconds {
		return daySeconds - 1
	}
	return b
}

// insertionSortSessions sorts a (tiny) bucket by (at, seq).
func insertionSortSessions(s []session) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0; j-- {
			a, b := s[j], s[j-1]
			if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
				break
			}
			s[j], s[j-1] = b, a
		}
	}
}

// simulateShard runs one shard start to finish on its own time cursor
// and private RNG stream. It is called concurrently for different
// shards but touches no shared state: everything it reads is the
// (value-copied) config, everything it writes is the returned
// accumulator, and its scratch is checked out of the pool for the
// duration of the call.
func simulateShard(cfg Config, sh Shard) *Result {
	rng := newShardRNG(sh)
	sc := cfg.Scenario
	sizeDist := stats.LogNormalFromMoments(sc.MeanVideoBytes, sc.MeanVideoBytes*0.9)
	g3 := float64(sc.Devices) * sc.PhoneBits

	// The time cursor lives on its own heap cell, not in the pooled
	// scratch: the Result's flight recorder captures the closure, and a
	// recycled scratch must never be reachable from a finished shard.
	now := new(float64)
	res := newResult(cfg, sh, func() float64 { return *now })

	st := getScratch(sh.Homes, sc.HistoryMonths)
	defer scratchPool.Put(st)

	genHomes(cfg, sh, rng, st, res)
	for day := 0; day < cfg.Days; day++ {
		runDay(cfg, sh, day, rng, st, res, now, sizeDist, g3)
	}
	return res
}
