package fault

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"threegol/internal/scheduler"
)

func simPaths() []SimPath {
	return []SimPath{
		{Name: "adsl", Rate: 100e3},
		{Name: "phone1", Rate: 200e3},
		{Name: "phone2", Rate: 150e3},
	}
}

func simItems(n int, size int64) []int64 {
	items := make([]int64, n)
	for i := range items {
		items[i] = size
	}
	return items
}

// hostilePolicy is the resilience stack the scenario tests run under:
// backoff with seeded jitter, the stall watchdog and the breaker.
func hostilePolicy(seed int64) scheduler.Options {
	return scheduler.Options{
		Backoff:      scheduler.BackoffConfig{Base: 100 * time.Millisecond, Jitter: 0.5, Seed: seed},
		StallTimeout: 2 * time.Second,
		Breaker:      scheduler.BreakerConfig{Threshold: 3},
	}
}

func mustSimulate(t *testing.T, cfg SimConfig) *SimReport {
	t.Helper()
	rep, err := Simulate(cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return rep
}

func assertExactlyOnce(t *testing.T, rep *SimReport, n int) {
	t.Helper()
	if rep.Failed != "" {
		t.Fatalf("transaction failed: %s", rep.Failed)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d items", rep.Completed, n)
	}
	for i, d := range rep.Delivered {
		if d != 1 {
			t.Fatalf("item %d delivered %d times; want exactly once", i, d)
		}
	}
}

func TestSimulateCleanRun(t *testing.T) {
	rep := mustSimulate(t, SimConfig{Paths: simPaths(), Items: simItems(10, 500e3)})
	assertExactlyOnce(t, rep, 10)
	if rep.Elapsed <= 0 {
		t.Fatalf("elapsed = %v", rep.Elapsed)
	}
	var total int64
	for _, st := range rep.PerPath {
		total += st.Bytes
	}
	if want := int64(10*500e3) + rep.DuplicateWaste; total != want {
		t.Fatalf("per-path bytes %d; want delivered+waste %d", total, want)
	}
}

func TestSimulateBlackoutAllCompletesOnADSL(t *testing.T) {
	// The acceptance scenario: every 3G path dead for the whole run.
	// 100% of items must land, all via ADSL.
	paths := simPaths()
	plan := MustCompile(ScenarioBlackoutAll, 3, []string{"phone1", "phone2"}, 0)
	rep := mustSimulate(t, SimConfig{
		Paths: paths, Items: simItems(8, 300e3), Plan: plan,
		Policy: scheduler.Options{
			Backoff: scheduler.BackoffConfig{Base: 200 * time.Millisecond, Jitter: 0.5, Seed: 3},
			Breaker: scheduler.BreakerConfig{Threshold: 2},
		},
	})
	assertExactlyOnce(t, rep, 8)
	if got := rep.PerPath["adsl"].Items; got != 8 {
		t.Fatalf("adsl delivered %d of 8", got)
	}
	for _, phone := range []string{"phone1", "phone2"} {
		st := rep.PerPath[phone]
		if st.Items != 0 {
			t.Fatalf("%s delivered %d items through an eternal blackout", phone, st.Items)
		}
		if st.Bytes != 0 {
			t.Fatalf("%s moved %d bytes through an eternal blackout", phone, st.Bytes)
		}
	}
	if rep.BreakerOpens == 0 {
		t.Fatalf("dead paths never tripped the breaker")
	}
}

func TestSimulateRevokeHoldsNewAttempts(t *testing.T) {
	// A fast phone beside a slow, clean ADSL line (4 items take it 4 s
	// alone). A revoked phone starts nothing inside the window, an
	// attempt already in flight when it opens runs on, and the path
	// wakes at the window's end (never, for a Forever window).
	paths := []SimPath{{Name: "adsl", Rate: 100e3}, {Name: "phone1", Rate: 1e6}}
	for _, tc := range []struct {
		name       string
		start, end float64
		items      int
		phoneItems int // -1: some, but not all
		maxElapsed float64
	}{
		{"revoked-past-adsl", 0, 10, 4, 0, 4},
		{"revoked-forever", 0, Forever, 4, 0, 4},
		{"in-flight-runs-on", 0.05, 10, 4, 1, 3},
		{"wakes-at-end", 0, 1.5, 8, -1, 3},
	} {
		plan := NewPlan(Window{Target: "phone1", Kind: Revoke, Start: tc.start, End: tc.end})
		rep := mustSimulate(t, SimConfig{Paths: paths, Items: simItems(tc.items, 100e3), Plan: plan})
		assertExactlyOnce(t, rep, tc.items)
		phone := rep.PerPath["phone1"]
		switch {
		case tc.phoneItems >= 0 && phone.Items != tc.phoneItems:
			t.Errorf("%s: phone delivered %d items, want %d", tc.name, phone.Items, tc.phoneItems)
		case tc.phoneItems == 0 && phone.Bytes != 0:
			t.Errorf("%s: a phone revoked from the start moved %d bytes", tc.name, phone.Bytes)
		case tc.phoneItems < 0 && (phone.Items == 0 || phone.Items == tc.items):
			t.Errorf("%s: phone delivered %d of %d items after its permit returned", tc.name, phone.Items, tc.items)
		}
		if rep.Elapsed > tc.maxElapsed+1e-9 || rep.Elapsed < tc.start {
			t.Errorf("%s: elapsed %.3f s, want within [%v, %v]", tc.name, rep.Elapsed, tc.start, tc.maxElapsed)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	for _, sc := range Scenarios() {
		plan := MustCompile(sc, 11, []string{"phone1", "phone2"}, 120)
		cfg := SimConfig{
			Paths: simPaths(), Items: simItems(12, 400e3), Plan: plan,
			Policy: hostilePolicy(11),
		}
		a, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		b, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Errorf("%s: reports differ across identical runs\n%s\n%s", sc, ja, jb)
		}
		assertExactlyOnce(t, a, 12)
	}
}

func TestSimulateDuplicateWasteBound(t *testing.T) {
	// GRD invariant (§4.1.1): at any item's completion, the losing
	// replicas' bytes sum to at most (N−1)·Sm — each of the other N−1
	// paths carries at most one replica, each ≤ Sm bytes in. That is
	// the per-completion maximum; cumulative DuplicateWaste may exceed
	// the bound whenever requeues open a second endgame, so it is only
	// sanity-checked against the per-completion figure here.
	const size = int64(400e3)
	for _, sc := range []Scenario{ScenarioNone, ScenarioFlaky, ScenarioStall, ScenarioHostile} {
		plan := MustCompile(sc, 5, []string{"phone1", "phone2"}, 120)
		rep := mustSimulate(t, SimConfig{
			Paths: simPaths(), Items: simItems(9, size), Plan: plan,
			Policy: hostilePolicy(5),
		})
		assertExactlyOnce(t, rep, 9)
		bound := int64(len(simPaths())-1) * size
		if rep.MaxCompletionWaste > bound {
			t.Errorf("%s: completion waste %d exceeds (N-1)·Sm = %d",
				sc, rep.MaxCompletionWaste, bound)
		}
		if rep.MaxCompletionWaste > rep.DuplicateWaste {
			t.Errorf("%s: max completion waste %d exceeds cumulative %d",
				sc, rep.MaxCompletionWaste, rep.DuplicateWaste)
		}
	}
}

// The endgame duplicates only where the replica is expected to win. Over
// vod_unshaped's shape — equal, unbound, ranged paths, whose items are
// below a piece's worth — the one path left carrying is never beaten,
// so nothing is duplicated; whereas a carrier that never answers, with
// no stall watchdog to abort it, is duplicated at due + own, the instant
// it is late by the replica's own time (its 3 ms of bytes and a
// request's 10 ms), and the transaction completes within GRD's waste
// bound.
func TestSimulateGateDuplicatesOnlyWinners(t *testing.T) {
	const (
		size  = int64(300e3)
		rate  = 100e6
		xfer  = float64(size) / rate // one item's time on any path
		own   = xfer + 0.010         // and a request's, the piece floor
		slack = 1e-9
	)
	paths := []SimPath{
		{Name: "adsl", Rate: rate, Ranged: true},
		{Name: "phone1", Rate: rate, Ranged: true},
		{Name: "phone2", Rate: rate, Ranged: true},
	}
	rep := mustSimulate(t, SimConfig{Paths: paths, Items: simItems(13, size), Plan: NewPlan()})
	assertExactlyOnce(t, rep, 13)
	if rep.Duplicates != 0 || rep.Splits != 0 {
		t.Errorf("equal ranged paths: %d duplicates, %d splits; want none", rep.Duplicates, rep.Splits)
	}

	for _, tc := range []struct {
		name  string
		paths []SimPath
		items []int64
		stall float64 // when the last carrier hangs for good
		due   float64 // when it was expected to end
	}{
		// phone2 hangs in its second item, due at 6 ms; the other paths
		// drain the pool and ask from 15 ms on, long after it was due.
		{"asked long after due", paths, simItems(13, size), 0.005, 2 * xfer},
		// phone1 hangs in its second item, due at 6 ms; adsl's is 1 kB
		// longer, so it asks 10 µs after that.
		{"asked just after due", paths[:2], []int64{size, size, size + 1e3, size}, 0.004, 2 * xfer},
	} {
		hung := NewPlan(Window{Target: tc.paths[len(tc.paths)-1].Name, Kind: Stall, Start: tc.stall, End: Forever})
		rep = mustSimulate(t, SimConfig{Paths: tc.paths, Items: tc.items, Plan: hung})
		assertExactlyOnce(t, rep, len(tc.items))
		if rep.Duplicates != 1 || rep.Splits != 0 {
			t.Errorf("%s: %d duplicates, %d splits; want 1 and 0", tc.name, rep.Duplicates, rep.Splits)
		}
		// The replica starts at due + own and moves its item in xfer.
		if want := tc.due + own + xfer; math.Abs(rep.Elapsed-want) > slack {
			t.Errorf("%s: ended at %.4f ms, want %.4f ms (the replica launched at due + own)",
				tc.name, rep.Elapsed*1000, want*1000)
		}
		if bound := int64(len(tc.paths)-1) * size; rep.MaxCompletionWaste > bound {
			t.Errorf("%s: completion waste %d exceeds (N-1)·Sm = %d", tc.name, rep.MaxCompletionWaste, bound)
		}
	}
}

func TestSimulateStallWatchdog(t *testing.T) {
	// One long stall window on phone1. With the watchdog armed the
	// attempt aborts after StallTimeout; without it the transfer waits
	// the stall out and finishes later.
	plan := NewPlan(Window{Target: "phone1", Kind: Stall, Start: 0, End: 50})
	base := SimConfig{
		Paths: []SimPath{{Name: "phone1", Rate: 100e3}},
		Items: simItems(1, 100e3),
		Plan:  plan,
	}

	patient := base
	rep := mustSimulate(t, patient)
	if rep.Elapsed != 51 { // 50s stall + 1s transfer
		t.Fatalf("patient run elapsed %v; want 51", rep.Elapsed)
	}
	if rep.StallAborts != 0 {
		t.Fatalf("watchdog disabled but %d stall aborts", rep.StallAborts)
	}

	armed := base
	armed.Policy.StallTimeout = 2 * time.Second
	armed.Policy.MaxRetries = 100
	rep = mustSimulate(t, armed)
	if rep.StallAborts == 0 {
		t.Fatalf("armed watchdog never fired")
	}
	// Every abort costs StallTimeout, and the item retries on the same
	// path until the stall window passes: elapsed = 50 + 1.
	if rep.Elapsed != 51 {
		t.Fatalf("armed run elapsed %v; want 51", rep.Elapsed)
	}
}

func TestSimulateExhaustionFails(t *testing.T) {
	// A single eternally-dead path must abort, not hang.
	plan := NewPlan(Window{Target: "phone1", Kind: Blackout, Start: 0, End: Forever})
	rep := mustSimulate(t, SimConfig{
		Paths: []SimPath{{Name: "phone1", Rate: 100e3}},
		Items: simItems(2, 100e3),
		Plan:  plan,
	})
	if rep.Failed == "" {
		t.Fatalf("expected transaction failure with every path dead")
	}
	if rep.Completed != 0 {
		t.Fatalf("completed %d items through an eternal blackout", rep.Completed)
	}
}

func TestSimulateBackoffSlowsRetries(t *testing.T) {
	// A dead path burning its retry budget: with backoff the virtual
	// clock advances between attempts; without it all failures land at
	// t=0.
	plan := NewPlan(Window{Target: "phone1", Kind: Blackout, Start: 0, End: Forever})
	cfg := SimConfig{
		Paths: []SimPath{{Name: "phone1", Rate: 100e3}},
		Items: simItems(1, 100e3),
		Plan:  plan,
	}
	rep := mustSimulate(t, cfg)
	if rep.Elapsed != 0 {
		t.Fatalf("no backoff: failure should resolve at t=0, got %v", rep.Elapsed)
	}
	cfg.Policy.Backoff.Base = time.Second
	rep = mustSimulate(t, cfg)
	// Three attempts: the second waits ≥1s, the third ≥2s.
	if rep.Elapsed < 3 {
		t.Fatalf("backoff: elapsed %v; want ≥ 3", rep.Elapsed)
	}
}

func TestSimulateBreakerHoldsPath(t *testing.T) {
	// phone1 is dead for 10s then clean. With the breaker, its failures
	// eject it and half-open probes readmit it after recovery; items
	// still complete exactly once.
	plan := NewPlan(Window{Target: "phone1", Kind: Blackout, Start: 0, End: 10})
	rep := mustSimulate(t, SimConfig{
		Paths: []SimPath{
			{Name: "adsl", Rate: 10e3},
			{Name: "phone1", Rate: 1000e3},
		},
		Items: simItems(6, 200e3),
		Plan:  plan,
		Policy: scheduler.Options{
			MaxRetries: 50,
			Backoff:    scheduler.BackoffConfig{Base: 500 * time.Millisecond},
			Breaker:    scheduler.BreakerConfig{Threshold: 2, Cooldown: time.Second},
		},
	})
	assertExactlyOnce(t, rep, 6)
	if rep.BreakerOpens == 0 {
		t.Fatalf("breaker never opened on a dead path")
	}
	if rep.PerPath["phone1"].Items == 0 {
		t.Fatalf("phone1 never readmitted after recovery")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(SimConfig{}); err == nil {
		t.Fatalf("no paths should be rejected")
	}
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		cfg := SimConfig{
			Paths: []SimPath{{Name: "adsl", Rate: 1e6}, {Name: "p", Rate: rate}},
			Items: []int64{1e5, 1e5, 1e5},
		}
		if _, err := Simulate(cfg); err == nil {
			t.Errorf("rate %v should be rejected", rate)
		}
	}
	rep := mustSimulate(t, SimConfig{Paths: simPaths()})
	if rep.Completed != 0 || rep.Failed != "" {
		t.Fatalf("empty item list should complete vacuously: %+v", rep)
	}
}
