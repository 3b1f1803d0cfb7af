package fleet

// Chaos harness: fleet-scale runs of the fault-injection simulator.
// Each home runs one virtual-time chaos transaction (fault.Simulate)
// against a per-home fault plan compiled from a named scenario, and the
// harness checks the scheduler's resilience invariants on every single
// transaction:
//
//   - exactly-once delivery: every item is delivered by exactly one
//     winning replica;
//   - bounded duplicate waste: at every item completion the losing
//     replicas burn at most (N−1)·Sm bytes (the paper's §4.1.1 bound),
//     fault or no fault — requeues may open further endgames, so the
//     cumulative figure is reported but only the per-completion
//     maximum is bounded;
//   - graceful degradation: scenarios that kill every 3G path still
//     complete 100% of items over ADSL alone.
//
// The harness rides the engine's shard/merge machinery, so chaos
// results inherit the same contract as fleet results: bit-identical
// output for every worker count.

import (
	"fmt"
	"math/rand"
	"time"

	"threegol/internal/fault"
	"threegol/internal/obs/eventlog"
	"threegol/internal/scheduler"
)

// chaos path names: one ADSL line plus two phones per home, matching
// the paper's household shape. Only the phones are ever faulted.
var chaosPhones = []string{"phone1", "phone2"}

// ChaosConfig describes one chaos fleet run. (Homes, Shards, Seed,
// Scenario) pin the run exactly; worker count never affects results.
type ChaosConfig struct {
	// Homes is the number of chaos transactions (one per home).
	Homes int
	// Shards partitions the homes (0 selects 8); same semantics as
	// Config.Shards.
	Shards int
	// Seed derives every shard's RNG stream and every home's fault
	// plan.
	Seed int64
	// Scenario names the fault schedule each home's phones suffer.
	Scenario fault.Scenario
	// HorizonSeconds bounds recurring scenarios' schedules (0 selects
	// 120).
	HorizonSeconds float64
	// ItemsPerHome is the transaction size in items (0 selects 8).
	ItemsPerHome int
	// Events enables the flight recorder: one span per transaction and
	// a point per invariant violation, merged deterministically across
	// shards (same contract as Config.Events).
	Events bool
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.HorizonSeconds <= 0 {
		c.HorizonSeconds = 120
	}
	if c.ItemsPerHome <= 0 {
		c.ItemsPerHome = 8
	}
	if c.Scenario == "" {
		c.Scenario = fault.ScenarioNone
	}
	return c
}

// ChaosResult is the chaos harness's Mergeable accumulator.
type ChaosResult struct {
	Homes     int64
	Items     int64
	Delivered int64
	// ADSLItems / PhoneItems split deliveries by carrying path class.
	ADSLItems  int64
	PhoneItems int64
	// Failed counts transactions that aborted (an item exhausted its
	// budget on every path) — always 0 while ADSL stays clean.
	Failed int64
	// Invariant violations, each counted per offending transaction.
	NotExactlyOnce  int64
	WasteBoundBreak int64
	// Aggregated resilience activity.
	DuplicateWaste int64
	// MaxCompletionWaste is the fleet-wide maximum of any single
	// completion's loser waste — the §4.1.1-bounded quantity.
	MaxCompletionWaste int64
	FailureWaste       int64
	Requeues           int64
	Duplicates         int64
	StallAborts        int64
	BreakerOpens       int64
	// ElapsedSeconds sums the transactions' virtual completion times.
	ElapsedSeconds float64

	events *eventlog.Log
}

// EventLog returns the merged chaos flight recorder, or nil when the
// run was configured without ChaosConfig.Events.
func (r *ChaosResult) EventLog() *eventlog.Log { return r.events }

// Merge folds src into r in shard order; see Mergeable.
func (r *ChaosResult) Merge(src *ChaosResult) {
	if src == nil {
		return
	}
	r.Homes += src.Homes
	r.Items += src.Items
	r.Delivered += src.Delivered
	r.ADSLItems += src.ADSLItems
	r.PhoneItems += src.PhoneItems
	r.Failed += src.Failed
	r.NotExactlyOnce += src.NotExactlyOnce
	r.WasteBoundBreak += src.WasteBoundBreak
	r.DuplicateWaste += src.DuplicateWaste
	if src.MaxCompletionWaste > r.MaxCompletionWaste {
		r.MaxCompletionWaste = src.MaxCompletionWaste
	}
	r.FailureWaste += src.FailureWaste
	r.Requeues += src.Requeues
	r.Duplicates += src.Duplicates
	r.StallAborts += src.StallAborts
	r.BreakerOpens += src.BreakerOpens
	r.ElapsedSeconds += src.ElapsedSeconds
	if r.events != nil && src.events != nil {
		r.events.Merge(src.events)
	}
}

// ChaosReport is the machine-readable summary — what 3golfleet -chaos
// -json emits and what the determinism test pins byte for byte.
type ChaosReport struct {
	Scenario        string  `json:"scenario"`
	Homes           int64   `json:"homes"`
	Items           int64   `json:"items"`
	Delivered       int64   `json:"delivered"`
	ADSLItems       int64   `json:"adsl_items"`
	PhoneItems      int64   `json:"phone_items"`
	Failed          int64   `json:"failed_transactions"`
	NotExactlyOnce  int64   `json:"not_exactly_once"`
	WasteBoundBreak int64   `json:"waste_bound_violations"`
	DuplicateWaste  int64   `json:"duplicate_waste_bytes"`
	MaxComplWaste   int64   `json:"max_completion_waste_bytes"`
	FailureWaste    int64   `json:"failure_waste_bytes"`
	Requeues        int64   `json:"requeues"`
	Duplicates      int64   `json:"duplicates"`
	StallAborts     int64   `json:"stall_aborts"`
	BreakerOpens    int64   `json:"breaker_opens"`
	MeanElapsedSecs float64 `json:"mean_elapsed_s"`
}

// Report summarises the merged chaos result.
func (r *ChaosResult) Report(scenario fault.Scenario) ChaosReport {
	rep := ChaosReport{
		Scenario:        string(scenario),
		Homes:           r.Homes,
		Items:           r.Items,
		Delivered:       r.Delivered,
		ADSLItems:       r.ADSLItems,
		PhoneItems:      r.PhoneItems,
		Failed:          r.Failed,
		NotExactlyOnce:  r.NotExactlyOnce,
		WasteBoundBreak: r.WasteBoundBreak,
		DuplicateWaste:  r.DuplicateWaste,
		MaxComplWaste:   r.MaxCompletionWaste,
		FailureWaste:    r.FailureWaste,
		Requeues:        r.Requeues,
		Duplicates:      r.Duplicates,
		StallAborts:     r.StallAborts,
		BreakerOpens:    r.BreakerOpens,
	}
	if r.Homes > 0 {
		rep.MeanElapsedSecs = r.ElapsedSeconds / float64(r.Homes)
	}
	return rep
}

// Healthy reports whether the run upheld every resilience invariant:
// no failed transactions, exactly-once delivery everywhere, and the
// duplicate-waste bound respected by every transaction.
func (rep ChaosReport) Healthy() bool {
	return rep.Failed == 0 && rep.NotExactlyOnce == 0 && rep.WasteBoundBreak == 0 &&
		rep.Delivered == rep.Items
}

// RunChaos simulates the configured chaos fleet on `workers` goroutines
// and returns the merged result. The output depends only on cfg.
func RunChaos(cfg ChaosConfig, workers int) (*ChaosResult, error) {
	if cfg.Homes <= 0 {
		return nil, fmt.Errorf("fleet: chaos config needs Homes > 0, got %d", cfg.Homes)
	}
	cfg = cfg.withDefaults()
	if _, err := fault.ParseScenario(string(cfg.Scenario)); err != nil {
		return nil, err
	}
	shards := Shards(Config{Homes: cfg.Homes, Shards: cfg.Shards, Seed: cfg.Seed})
	res := MapReduce(shards, workers, func(sh Shard) *ChaosResult {
		return simulateChaosShard(cfg, sh)
	})
	return res, nil
}

// simulateChaosShard runs one shard's homes sequentially on the shard's
// private RNG stream, checking invariants per transaction.
func simulateChaosShard(cfg ChaosConfig, sh Shard) *ChaosResult {
	rng := newShardRNG(sh)
	r := &ChaosResult{}
	var vt float64 // shard-virtual time: transactions laid end to end
	if cfg.Events {
		// Same derivation discipline as newResult: IDs from (cfg.Seed,
		// shard index), times from the shard's virtual timeline.
		r.events = eventlog.New(sh.Index, cfg.Seed, func() float64 { return vt })
	}
	for i := 0; i < sh.Homes; i++ {
		homeID := sh.First + i
		simCfg, maxItem := chaosHomeConfig(cfg, homeID, rng)
		rep, err := fault.Simulate(simCfg)
		if err != nil {
			// Simulator-internal invariant failure: count as a failed
			// transaction so CI trips loudly instead of dropping it.
			r.Homes++
			r.Failed++
			continue
		}
		recordChaosHome(r, cfg, homeID, rep, simCfg, maxItem)
		// Transactions lie end to end on the shard's virtual timeline.
		vt += rep.Elapsed
	}
	return r
}

// chaosHomeConfig derives one home's simulation: item sizes and path
// rates from the shard stream, the fault plan from the home's own
// seed-mixed stream (so a home's schedule is independent of its
// neighbours' draws).
func chaosHomeConfig(cfg ChaosConfig, homeID int, rng *rand.Rand) (fault.SimConfig, int64) {
	items := make([]int64, cfg.ItemsPerHome)
	var maxItem int64
	for j := range items {
		// Video-segment-scale items: 200 KB – 1.2 MB.
		items[j] = int64(200e3 + rng.Float64()*1e6)
		if items[j] > maxItem {
			maxItem = items[j]
		}
	}
	planSeed := fault.MixSeed(cfg.Seed, homeID, 0)
	plan := fault.MustCompile(cfg.Scenario, planSeed, chaosPhones, cfg.HorizonSeconds)
	return fault.SimConfig{
		Paths: []fault.SimPath{
			// ADSL2+ at ~1 Mbps payload vs HSPA phones near 300 KB/s —
			// the boost regime where 3G carries most bytes when alive.
			{Name: "adsl", Rate: 125e3},
			{Name: chaosPhones[0], Rate: 300e3},
			{Name: chaosPhones[1], Rate: 300e3},
		},
		Items: items,
		Plan:  plan,
		Policy: scheduler.Options{
			MaxRetries: 4,
			Backoff: scheduler.BackoffConfig{
				Base: 100 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.5,
				Seed: fault.MixSeed(cfg.Seed, homeID, 1),
			},
			StallTimeout: 2 * time.Second,
			Breaker:      scheduler.BreakerConfig{Threshold: 3, Cooldown: time.Second},
		},
	}, maxItem
}

// recordChaosHome folds one transaction's report into the accumulator,
// checking the per-transaction invariants.
func recordChaosHome(r *ChaosResult, cfg ChaosConfig, homeID int, rep *fault.SimReport, simCfg fault.SimConfig, maxItem int64) {
	r.Homes++
	r.Items += int64(len(simCfg.Items))
	r.DuplicateWaste += rep.DuplicateWaste
	if rep.MaxCompletionWaste > r.MaxCompletionWaste {
		r.MaxCompletionWaste = rep.MaxCompletionWaste
	}
	r.FailureWaste += rep.FailureWaste
	r.Requeues += int64(rep.Requeues)
	r.Duplicates += int64(rep.Duplicates)
	r.StallAborts += int64(rep.StallAborts)
	r.BreakerOpens += int64(rep.BreakerOpens)
	r.ElapsedSeconds += rep.Elapsed

	var sp eventlog.Span
	if r.events != nil {
		sp = r.events.Begin(eventlog.TraceContext{}, "chaos.transaction",
			"home", eventlog.Int(int64(homeID)),
			"scenario", string(cfg.Scenario),
			"items", eventlog.Int(int64(len(simCfg.Items))))
	}

	failed := rep.Failed != ""
	if failed {
		r.Failed++
	}
	exactlyOnce := !failed
	for _, d := range rep.Delivered {
		if d == 1 {
			r.Delivered++
		} else {
			exactlyOnce = false
		}
	}
	if !failed && !exactlyOnce {
		r.NotExactlyOnce++
		r.events.Point(sp.Context(), "chaos.violation",
			"invariant", "exactly_once", "home", eventlog.Int(int64(homeID)))
	}
	// The §4.1.1 endgame bound: at any completion, losers burn at most
	// (N−1)·Sm. Cumulative waste is reported but unbounded per se —
	// every requeue may open another endgame.
	if bound := int64(len(simCfg.Paths)-1) * maxItem; rep.MaxCompletionWaste > bound {
		r.WasteBoundBreak++
		r.events.Point(sp.Context(), "chaos.violation",
			"invariant", "waste_bound", "home", eventlog.Int(int64(homeID)),
			"waste", eventlog.Int(rep.MaxCompletionWaste), "bound", eventlog.Int(bound))
	}
	for name, st := range map[string]fault.SimPathStats{
		"adsl":         rep.PerPath["adsl"],
		chaosPhones[0]: rep.PerPath[chaosPhones[0]],
		chaosPhones[1]: rep.PerPath[chaosPhones[1]],
	} {
		if name == "adsl" {
			r.ADSLItems += int64(st.Items)
		} else {
			r.PhoneItems += int64(st.Items)
		}
	}
	if r.events != nil {
		outcome := "ok"
		if failed {
			outcome = "failed"
		}
		sp.EndAt(r.events.Now()+rep.Elapsed,
			"outcome", outcome,
			"stall_aborts", eventlog.Int(int64(rep.StallAborts)),
			"breaker_opens", eventlog.Int(int64(rep.BreakerOpens)),
			"duplicate_waste", eventlog.Int(rep.DuplicateWaste))
	}
}
