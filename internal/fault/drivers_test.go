package fault

// Property tests of the two drivers of scheduler.Core. The decision
// logic exists once, so there is no second procedure to diff action by
// action; what can still go wrong is a driver feeding the core
// unfaithful events (a cancellation reported as a failure, a loser left
// running, a wake never delivered). Both drivers are therefore run over
// random workloads and compiled fault plans and held to the paper's
// transaction-level claims: every item delivered exactly once, loser
// waste at any completion ≤ (N−1)·Sm, termination, and ADSL-only
// completion when every phone is dead. On some seeds the paths can carry
// byte ranges, so the endgame splits as well as duplicates. The live driver also runs the
// two fixed-queue baselines, which promise less: termination, no
// duplicate and no waste, and an honest error when a dead path holds an
// item nobody else may carry. Both meet one fault model: the live
// driver's memPath moves bytes in real time by Simulate's attempt walk.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"threegol/internal/obs/eventlog"
	"threegol/internal/scheduler"
)

// workload is one random transaction: path 0 is the never-faulted ADSL
// line, the rest are phones.
type workload struct {
	scenario Scenario
	names    []string
	rates    []float64 // bytes/s
	sizes    []int64
	maxSize  int64
}

func randomWorkload(seed int64) workload {
	rng := rand.New(rand.NewSource(seed))
	scs := Scenarios()
	w := workload{scenario: scs[int(seed)%len(scs)], names: []string{"adsl"}}
	w.rates = append(w.rates, 50e3+rng.Float64()*150e3)
	for i := 1 + rng.Intn(3); i > 0; i-- {
		w.names = append(w.names, "phone"+strconv.Itoa(len(w.names)))
		w.rates = append(w.rates, 100e3+rng.Float64()*400e3)
	}
	for i := 1 + rng.Intn(16); i > 0; i-- {
		size := int64(50e3 + rng.Float64()*1.5e6)
		w.sizes = append(w.sizes, size)
		if size > w.maxSize {
			w.maxSize = size
		}
	}
	return w
}

func (w workload) phones() []string { return w.names[1:] }

// wasteBound is (N−1)·Sm.
func (w workload) wasteBound() int64 { return int64(len(w.names)-1) * w.maxSize }

func TestSimDriverProperties(t *testing.T) {
	splits := 0
	defer func() {
		if splits == 0 {
			t.Error("no seed split an attempt")
		}
	}()
	for seed := int64(0); seed < 400; seed++ {
		w := randomWorkload(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		policy := scheduler.Options{
			MaxRetries:         2 + rng.Intn(4),
			DisableDuplication: rng.Intn(8) == 0,
			Backoff: scheduler.BackoffConfig{
				Base:   time.Duration(rng.Intn(400)) * time.Millisecond, // 0 = off
				Jitter: 0.5, Seed: seed,
			},
			StallTimeout: time.Duration(rng.Intn(4)) * time.Second, // 0 = off
			Breaker:      scheduler.BreakerConfig{Threshold: rng.Intn(5)},
		}
		cfg := SimConfig{Items: w.sizes, Plan: MustCompile(w.scenario, seed, w.phones(), 120), Policy: policy}
		ranged := rng.Intn(2) == 0 // ADSL, and each phone by a coin
		for i, name := range w.names {
			cfg.Paths = append(cfg.Paths, SimPath{Name: name, Rate: w.rates[i], Ranged: ranged && (i == 0 || rng.Intn(2) == 0)})
		}
		rep, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, w.scenario, err)
		}
		if rep.Failed != "" {
			t.Fatalf("seed %d (%s): aborted with a clean ADSL line: %s", seed, w.scenario, rep.Failed)
		}
		for i, d := range rep.Delivered {
			if d != 1 {
				t.Fatalf("seed %d (%s): item %d delivered %d times", seed, w.scenario, i, d)
			}
		}
		if rep.MaxCompletionWaste > w.wasteBound() {
			t.Errorf("seed %d (%s): completion waste %d > (N-1)·Sm = %d",
				seed, w.scenario, rep.MaxCompletionWaste, w.wasteBound())
		}
		if policy.DisableDuplication && (rep.Duplicates != 0 || rep.DuplicateWaste != 0 || rep.Splits != 0) {
			t.Errorf("seed %d: duplication disabled yet %d duplicates, %d splits, %d waste",
				seed, rep.Duplicates, rep.Splits, rep.DuplicateWaste)
		}
		if !ranged && rep.Splits != 0 {
			t.Errorf("seed %d: %d splits over paths that cannot carry a range", seed, rep.Splits)
		}
		splits += rep.Splits
		if w.scenario == ScenarioBlackoutAll {
			if got := rep.PerPath["adsl"].Items; got != len(w.sizes) {
				t.Errorf("seed %d: blackout-all: ADSL carried %d of %d items", seed, got, len(w.sizes))
			}
			for _, phone := range w.phones() {
				if st := rep.PerPath[phone]; st.Items != 0 || st.Bytes != 0 {
					t.Errorf("seed %d: blackout-all: %s moved %+v", seed, phone, st)
				}
			}
		}
	}
}

// memPath is the live driver's test path: it moves an item's bytes in
// real time exactly as walkAttempt (with no watchdog) and cleanBytes
// say an attempt on its plan does — at rate through clean air, frozen
// through stall windows (the live watchdog does the aborting), dead at
// the opening edge of a blackout, depart or reset window. Plan time is
// seconds since epoch. It reports progress every millisecond and
// returns the partial count when cancelled.
type memPath struct {
	name  string
	rate  float64 // bytes/s
	plan  *Plan
	epoch time.Time
}

// errKilled is a memPath attempt dying in a blackout, depart or reset
// window.
var errKilled = errors.New("fault: attempt killed by the plan")

func (p *memPath) Name() string { return p.name }

func (p *memPath) Transfer(ctx context.Context, it scheduler.Item) (int64, error) {
	return p.TransferProgress(ctx, it, func(int64) {})
}

func (p *memPath) TransferProgress(ctx context.Context, it scheduler.Item, progress func(int64)) (int64, error) {
	t0 := time.Since(p.epoch).Seconds()
	end, bytes, out := walkAttempt(p.plan, p.name, p.rate, it.Size, t0, 0)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		t := time.Since(p.epoch).Seconds()
		if t >= end {
			progress(bytes)
			if out == attemptKilled {
				return bytes, errKilled
			}
			return bytes, nil
		}
		moved := cleanBytes(p.plan, p.name, p.rate, it.Size, t0, t)
		progress(moved)
		select {
		case <-ctx.Done():
			return moved, ctx.Err()
		case <-tick.C:
		}
	}
}

// rangedMemPath is a memPath that can carry a byte range: it walks its
// window the same way and moves the bytes through the Range as
// transfer.DownloadPath reads a body, so a split can cut it short.
type rangedMemPath struct{ memPath }

func (p *rangedMemPath) Ranges() bool { return true }
func (p *rangedMemPath) Cuts() bool   { return true }

func (p *rangedMemPath) TransferRange(ctx context.Context, it scheduler.Item, r *scheduler.Range, progress func(int64)) (int64, error) {
	if r.End() == 0 {
		r.SetEnd(it.Size)
	}
	size := r.End() - r.Off
	t0 := time.Since(p.epoch).Seconds()
	end, bytes, out := walkAttempt(p.plan, p.name, p.rate, size, t0, 0)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var got int64
	for {
		t := time.Since(p.epoch).Seconds()
		moved := bytes
		if t < end {
			moved = cleanBytes(p.plan, p.name, p.rate, size, t0, t)
		}
		for got < moved {
			k := r.Take(int(moved - got))
			if k == 0 {
				break // a split cut the window here
			}
			r.Got(k)
			got += int64(k)
		}
		if progress != nil {
			progress(got)
		}
		switch {
		case r.Complete():
			return got, nil
		case t >= end && out == attemptKilled:
			return got, errKilled
		}
		select {
		case <-ctx.Done():
			return got, ctx.Err()
		case <-tick.C:
		}
	}
}

// scalePlan shrinks every window of plan by factor k, bringing the
// catalog's second-scale schedules down to milliseconds.
func scalePlan(plan *Plan, k float64) *Plan {
	var ws []Window
	for _, windows := range plan.byTarget {
		for _, w := range windows {
			w.Start *= k
			w.End *= k
			ws = append(ws, w)
		}
	}
	return NewPlan(ws...)
}

func TestLiveDriverProperties(t *testing.T) {
	// The sim workloads at 1/50 scale in time: fault windows shrink
	// (10–400 ms) and rates grow 50×, so a transaction lasts a few
	// hundred real milliseconds and meets as many windows as its
	// simulated twin, with items large enough to split. Odd seeds run
	// paths that can carry byte ranges.
	const scale = 1.0 / 50
	const maxRetries = 4
	const stallTimeout = 40 * time.Millisecond
	// Stall aborts that end after bytes moved, over every seed: a live
	// driver that only ever met stalls at admission would pass the
	// per-seed checks while the watchdog's mid-transfer branch went
	// untested.
	var ran, midStalls, splits atomic.Int64
	t.Cleanup(func() {
		t.Logf("%d stall aborts after bytes moved, %d splits", midStalls.Load(), splits.Load())
		if ran.Load() == 16 && midStalls.Load() == 0 {
			t.Errorf("no stall abort ended after bytes moved, over 16 seeds")
		}
		if ran.Load() == 16 && splits.Load() == 0 {
			t.Errorf("no split over the 8 seeds with ranged paths")
		}
	})
	for seed := int64(0); seed < 16; seed++ {
		seed := seed
		w := randomWorkload(seed)
		t.Run(fmt.Sprintf("%s/seed%d", w.scenario, seed), func(t *testing.T) {
			t.Parallel()
			defer ran.Add(1)
			for _, algo := range []scheduler.Algo{scheduler.Greedy, scheduler.Playout, scheduler.RoundRobin, scheduler.MinTime} {
				plan := scalePlan(MustCompile(w.scenario, seed, w.phones(), 120), scale)
				items := make([]scheduler.Item, len(w.sizes))
				for i, size := range w.sizes {
					items[i] = scheduler.Item{ID: i, Name: "item" + strconv.Itoa(i), Size: size}
				}
				epoch := time.Now()
				paths := make([]scheduler.Path, len(w.names))
				for i, name := range w.names {
					mp := memPath{name: name, rate: w.rates[i] / scale, plan: plan, epoch: epoch}
					paths[i] = &mp
					if seed%2 == 1 {
						paths[i] = &rangedMemPath{mp}
					}
				}
				log := eventlog.New(0, seed, func() float64 { return time.Since(epoch).Seconds() })
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				rep, err := scheduler.Run(ctx, algo, items, paths, scheduler.Options{
					MaxRetries:   maxRetries,
					Backoff:      scheduler.BackoffConfig{Base: 2 * time.Millisecond, Max: 40 * time.Millisecond, Jitter: 0.5, Seed: seed},
					StallTimeout: stallTimeout,
					Breaker:      scheduler.BreakerConfig{Threshold: 3, Cooldown: 20 * time.Millisecond},
					Events:       log,
				})
				cancel()

				// The attempt spans are the driver's own record of what each
				// replica did: one "ok" per item, losers' bytes as waste,
				// failures charged to the path that suffered them.
				events := log.Events()
				type attempt struct {
					item int
					path string
				}
				attemptOf := make(map[string]attempt) // attempt span → what it carried
				dups := 0
				for _, ev := range events {
					if ev.Kind == eventlog.KindBegin && ev.Name == "scheduler.attempt" {
						item, _ := strconv.Atoi(ev.Attrs["item"])
						attemptOf[ev.Span] = attempt{item, ev.Attrs["path"]}
					}
					if ev.Kind == eventlog.KindPoint && ev.Name == "scheduler.duplicate" {
						dups++
					}
					if ev.Kind == eventlog.KindPoint && ev.Name == "scheduler.split" {
						splits.Add(1)
					}
				}
				delivered := make([]int, len(items))
				loss := make([]int64, len(items))
				killed := make(map[attempt]int)
				var wasted int64
				for _, ev := range events {
					if ev.Kind != eventlog.KindEnd || ev.Name != "scheduler.attempt" {
						continue
					}
					bytes, _ := strconv.ParseInt(ev.Attrs["bytes"], 10, 64)
					switch ev.Attrs["outcome"] {
					case "ok":
						delivered[attemptOf[ev.Span].item]++
					case "error":
						a := attemptOf[ev.Span]
						killed[a]++
						stall := &scheduler.StallError{ItemID: a.item, PathName: a.path, Timeout: stallTimeout}
						if bytes > 0 && ev.Attrs["error"] == stall.Error() {
							midStalls.Add(1)
						}
					case "cancelled", "lost_race":
						loss[attemptOf[ev.Span].item] += bytes
						wasted += bytes
					}
				}

				if algo == scheduler.RoundRobin || algo == scheduler.MinTime {
					// Fixed queues cannot route around a dead path, so they
					// may lose the transaction — but only honestly: to a path
					// the plan really killed maxRetries times under one item,
					// with nothing duplicated, wasted or delivered twice.
					if dups != 0 {
						t.Errorf("%v: %d duplicates on fixed queues", algo, dups)
					}
					var ie *scheduler.ItemError
					switch {
					case err == nil:
						// (On an abort the attempts still running end
						// "cancelled" too; that is not replica waste.)
						if wasted != 0 || rep.WastedBytes != 0 {
							t.Errorf("%v: wasted %d bytes by the spans, %d by the report", algo, wasted, rep.WastedBytes)
						}
					case !errors.As(err, &ie): // includes non-termination: the deadline
						t.Fatalf("%v: Run: %v", algo, err)
					case ie.Everywhere || ie.Attempts != maxRetries || ie.PathName == "adsl" ||
						killed[attempt{ie.ItemID, ie.PathName}] != maxRetries:
						t.Errorf("%v: %+v, but the attempt spans show item %d died %d times on %s",
							algo, ie, ie.ItemID, killed[attempt{ie.ItemID, ie.PathName}], ie.PathName)
					}
					for i, n := range delivered {
						if n > 1 || (err == nil && n != 1) {
							t.Errorf("%v: item %d delivered %d times (Run: %v)", algo, i, n, err)
						}
					}
					continue
				}

				if err != nil {
					t.Fatalf("%v: Run: %v", algo, err) // includes non-termination: the deadline
				}
				bound := w.wasteBound()
				for i := range items {
					if delivered[i] != 1 {
						t.Errorf("%v: item %d delivered %d times", algo, i, delivered[i])
					}
					if loss[i] > bound {
						t.Errorf("%v: item %d: loser waste %d > (N-1)·Sm = %d", algo, i, loss[i], bound)
					}
				}
				completions := 0
				for _, st := range rep.PerPath {
					completions += st.Items
				}
				if completions != len(items) {
					t.Errorf("%v: report counts %d completions for %d items", algo, completions, len(items))
				}
				if wasted != rep.WastedBytes {
					t.Errorf("%v: attempt spans show %d wasted bytes, report says %d", algo, wasted, rep.WastedBytes)
				}
				if w.scenario == ScenarioBlackoutAll {
					if got := rep.PerPath["adsl"].Items; got != len(items) {
						t.Errorf("%v: blackout-all: ADSL carried %d of %d items", algo, got, len(items))
					}
					for _, phone := range w.phones() {
						if st := rep.PerPath[phone]; st.Items != 0 || st.Bytes != 0 {
							t.Errorf("%v: blackout-all: %s moved %+v", algo, phone, st)
						}
					}
				}
			}
		})
	}
}
