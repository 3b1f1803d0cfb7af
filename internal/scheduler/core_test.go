package scheduler

import (
	"testing"
	"time"
)

// The decision core is clockless and single-threaded, so its tests are
// scripts: ask Idle, report an outcome, compare the verdict.

func TestBackoffDelay(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  BackoffConfig
		// want[k] is the jitter-free delay after the k-th consecutive
		// failure; with jitter the draw lies in [want, want·(1+Jitter)).
		want []float64
	}{
		{"disabled", BackoffConfig{}, []float64{0, 0, 0, 0}},
		{"disabled ignores jitter", BackoffConfig{Jitter: 0.5, Seed: 1}, []float64{0, 0}},
		{"doubles to the default cap of 32×Base", BackoffConfig{Base: time.Second},
			[]float64{1, 2, 4, 8, 16, 32, 32, 32}},
		{"doubles to Max", BackoffConfig{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond},
			[]float64{0.01, 0.02, 0.04, 0.08, 0.08, 0.08}},
		{"Max off the doubling grid", BackoffConfig{Base: time.Second, Max: 3 * time.Second},
			[]float64{1, 2, 3, 3}},
		{"jittered", BackoffConfig{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: 0.5, Seed: 7},
			[]float64{0.01, 0.02, 0.04, 0.08, 0.08, 0.08, 0.08, 0.08}},
	} {
		a, b := newBackoff(tc.cfg), newBackoff(tc.cfg)
		for k, want := range tc.want {
			da, db := a.delay(k), b.delay(k)
			if da != db {
				t.Errorf("%s: delay(%d) = %v vs %v — same seed must draw the same jitter", tc.name, k, da, db)
			}
			if hi := want * (1 + tc.cfg.Jitter); da < want || (da > want && da >= hi) {
				t.Errorf("%s: delay(%d) = %v outside [%v, %v)", tc.name, k, da, want, hi)
			}
		}
	}
	// The jitter stream is a function of the seed: another seed draws
	// another sequence.
	a := newBackoff(BackoffConfig{Base: time.Second, Jitter: 0.5, Seed: 1})
	b := newBackoff(BackoffConfig{Base: time.Second, Jitter: 0.5, Seed: 2})
	if a.delay(0) == b.delay(0) && a.delay(1) == b.delay(1) {
		t.Error("seeds 1 and 2 drew the same jitter twice")
	}
}

func TestToDurationNeverUndershoots(t *testing.T) {
	for _, s := range []float64{0, 1e-9, 0.1, 0.30000000000000004, 1.0000000004, 2} {
		if d := toDuration(s); d.Seconds() < s || d.Seconds() > s+1e-9 {
			t.Errorf("toDuration(%v) = %v", s, d)
		}
	}
}

// TestCoreBreaker walks one path's breaker through every transition:
// closed → open → half-open probe → re-open with a doubled, capped hold
// → closed with the hold reset.
func TestCoreBreaker(t *testing.T) {
	c := NewCore(Greedy, 4, 1, Options{
		MaxRetries: 100,
		Breaker:    BreakerConfig{Threshold: 2, Cooldown: time.Second, MaxCooldown: 3 * time.Second},
	})
	const (
		none = iota // Idle answered Wait: nothing to report
		ok
		fail
	)
	for i, st := range []struct {
		at       float64
		action   Action
		until    float64 // Wait
		probe    bool
		outcome  int
		opened   bool    // fail
		cooldown float64 // fail && opened
		reclosed bool    // ok
		why      string
	}{
		{at: 0, action: Assign, outcome: fail, why: "one failure under the threshold does not eject"},
		{at: 0, action: Assign, outcome: ok, why: "a success resets the consecutive count"},
		{at: 0, action: Assign, outcome: fail, why: "so this is failure one of two again"},
		{at: 0, action: Assign, outcome: fail, opened: true, cooldown: 1, why: "second consecutive failure opens"},
		{at: 0.5, action: Wait, until: 1, why: "open breaker holds the path out"},
		{at: 1, action: Assign, probe: true, outcome: fail, opened: true, cooldown: 2, why: "failed probe re-opens with a doubled hold"},
		{at: 1, action: Wait, until: 3},
		{at: 2.999, action: Wait, until: 3},
		{at: 3, action: Assign, probe: true, outcome: fail, opened: true, cooldown: 3, why: "doubling is capped at MaxCooldown"},
		{at: 6, action: Assign, probe: true, outcome: fail, opened: true, cooldown: 3, why: "and stays capped"},
		{at: 8, action: Wait, until: 9},
		{at: 9, action: Assign, probe: true, outcome: ok, reclosed: true, why: "successful probe re-closes"},
		{at: 9, action: Assign, outcome: fail, why: "closed again: the threshold counts from zero"},
		{at: 9, action: Assign, outcome: fail, opened: true, cooldown: 1, why: "and the hold is back to Cooldown"},
	} {
		d := c.Idle(0, st.at)
		if d.Action != st.action || d.Probe != st.probe || (st.action == Wait && d.Until != st.until) {
			t.Fatalf("step %d (%s): Idle(%v) = %+v; want action %v until %v probe %v",
				i, st.why, st.at, d, st.action, st.until, st.probe)
		}
		switch st.outcome {
		case ok:
			if s := c.Succeeded(d.Item, 0); !s.Won || s.Closed != st.reclosed {
				t.Fatalf("step %d (%s): Succeeded = %+v; want won, closed %v", i, st.why, s, st.reclosed)
			}
		case fail:
			f := c.Failed(d.Item, 0, st.at)
			if f.Opened != st.opened || f.Cooldown != st.cooldown {
				t.Fatalf("step %d (%s): Failed = %+v; want opened %v cooldown %v",
					i, st.why, f, st.opened, st.cooldown)
			}
		}
	}
}

func TestCoreBreakerDisabledByDefault(t *testing.T) {
	c := NewCore(Greedy, 1, 1, Options{MaxRetries: 50})
	for i := 0; i < 40; i++ {
		d := c.Idle(0, 0)
		if d.Action != Assign || d.Probe {
			t.Fatalf("failure %d: Idle = %+v; a disabled breaker never holds a path", i, d)
		}
		if f := c.Failed(d.Item, 0, 0); f.Opened || f.Backoff != 0 {
			t.Fatalf("failure %d: %+v; zero Options open nothing and back off nothing", i, f)
		}
	}
}

// idle asserts one Idle answer.
func idle(t *testing.T, c *Core, p int, want Action, item int) {
	t.Helper()
	d := c.Idle(p, 0)
	if d.Action != want || (want != Park && d.Item != item) {
		t.Fatalf("Idle(path %d) = %+v; want action %v item %d", p, d, want, item)
	}
}

func TestCoreTakesPendingBeforeDuplicating(t *testing.T) {
	c := NewCore(Greedy, 3, 2, Options{})
	idle(t, c, 0, Assign, 0)
	idle(t, c, 1, Assign, 1) // item 0 is in flight and duplicable, but item 1 is pending
	if s := c.Succeeded(1, 1); !s.Won || len(s.Cancel) != 0 {
		t.Fatalf("Succeeded = %+v", s)
	}
	idle(t, c, 1, Assign, 2)
	if s := c.Succeeded(2, 1); !s.Won {
		t.Fatalf("Succeeded = %+v", s)
	}
	idle(t, c, 1, Duplicate, 0) // queue drained: now the endgame
	if s := c.Succeeded(0, 1); !s.Won || len(s.Cancel) != 1 || s.Cancel[0] != 0 {
		t.Fatalf("winner must be told to cancel path 0's replica: %+v", s)
	}
	if s := c.Succeeded(0, 0); s.Won || len(s.Cancel) != 0 {
		t.Fatalf("second finisher of a delivered item won: %+v", s)
	}
	idle(t, c, 0, Park, 0)
	idle(t, c, 1, Park, 0)
}

func TestCoreEndgameOrder(t *testing.T) {
	// Four paths; items 0, 1, 2 assigned in that order to paths 0, 1, 2.
	// Path 1 then wins item 1 and duplicates: which item?
	for _, tc := range []struct {
		name  string
		algo  Algo
		setup func(c *Core)
		want  int
	}{
		{"GRD: equal replicas, oldest assignment first", Greedy, func(*Core) {}, 0},
		{"PLAYOUT: lowest ID", Playout, func(*Core) {}, 0},
		{"GRD: fewest replicas beats older", Greedy,
			func(c *Core) { c.Idle(3, 0) /* path 3 duplicates item 0 → 2 replicas */ }, 2},
		{"PLAYOUT: lowest ID regardless of replicas", Playout,
			func(c *Core) { c.Idle(3, 0) }, 0},
		{"GRD: a requeued item counts from its new assignment", Greedy,
			func(c *Core) {
				c.Failed(0, 0, 0) // item 0 → pending
				c.Idle(0, 0)      // path 0 retakes it: now the youngest flight
			}, 2},
		{"PLAYOUT: still the lowest ID after a requeue", Playout,
			func(c *Core) {
				c.Failed(0, 0, 0)
				c.Idle(0, 0)
			}, 0},
	} {
		c := NewCore(tc.algo, 3, 4, Options{})
		idle(t, c, 0, Assign, 0)
		idle(t, c, 1, Assign, 1)
		idle(t, c, 2, Assign, 2)
		c.Succeeded(1, 1)
		tc.setup(c)
		if d := c.Idle(1, 0); d.Action != Duplicate || d.Item != tc.want {
			t.Errorf("%s: Idle = %+v; want duplicate of item %d", tc.name, d, tc.want)
		}
	}
}

func TestCoreDisableDuplicationParks(t *testing.T) {
	c := NewCore(Greedy, 1, 2, Options{DisableDuplication: true})
	idle(t, c, 0, Assign, 0)
	idle(t, c, 1, Park, 0)
	if f := c.Failed(0, 0, 0); !f.Requeued {
		t.Fatalf("Failed = %+v; want requeue", f)
	}
	idle(t, c, 1, Assign, 0) // the ablation still reassigns failed items
}

func TestCoreRetryBudget(t *testing.T) {
	// MaxRetries 2 over two paths. Path 0 burns its budget for item 0 and
	// must then skip it — in the queue and in the endgame — while path 1
	// still may take it; the item is exhausted only once path 1 has
	// burnt its budget too.
	c := NewCore(Greedy, 2, 2, Options{MaxRetries: 2})
	idle(t, c, 0, Assign, 0)
	idle(t, c, 1, Assign, 1)
	if f := c.Failed(0, 0, 0); !f.Requeued || f.Exhausted || f.Attempts != 1 {
		t.Fatalf("path 0 try 1: %+v", f)
	}
	idle(t, c, 0, Assign, 0)
	if f := c.Failed(0, 0, 0); !f.Requeued || f.Exhausted || f.Attempts != 2 {
		t.Fatalf("path 0 try 2: %+v", f)
	}
	idle(t, c, 0, Duplicate, 1) // item 0 is pending but path 0 is spent on it
	if s := c.Succeeded(1, 0); !s.Won || len(s.Cancel) != 1 || s.Cancel[0] != 1 {
		t.Fatalf("Succeeded = %+v", s)
	}
	idle(t, c, 1, Assign, 0)
	idle(t, c, 0, Park, 0) // nor may path 0 duplicate it
	if f := c.Failed(0, 1, 0); !f.Requeued || f.Exhausted || f.Attempts != 3 {
		t.Fatalf("path 1 try 1: %+v", f)
	}
	idle(t, c, 0, Park, 0)
	idle(t, c, 1, Assign, 0)
	if f := c.Failed(0, 1, 0); !f.Exhausted || f.Requeued || f.Attempts != 4 {
		t.Fatalf("path 1 try 2: %+v; want exhausted after 4 attempts, no requeue", f)
	}
}

func TestCoreRequeuesOnlyTheLastReplica(t *testing.T) {
	c := NewCore(Greedy, 1, 3, Options{})
	idle(t, c, 0, Assign, 0)
	idle(t, c, 1, Duplicate, 0)
	idle(t, c, 2, Duplicate, 0)
	if f := c.Failed(0, 0, 0); f.Requeued {
		t.Fatalf("requeued with two replicas still carrying the item: %+v", f)
	}
	if f := c.Failed(0, 2, 0); f.Requeued {
		t.Fatalf("requeued with one replica still carrying the item: %+v", f)
	}
	idle(t, c, 0, Duplicate, 0) // still in flight on path 1, so still an endgame candidate
	c.Failed(0, 0, 0)
	if f := c.Failed(0, 1, 0); !f.Requeued {
		t.Fatalf("last replica died and the item was not requeued: %+v", f)
	}
	idle(t, c, 2, Assign, 0)
}

// Ruling (a): any successful transfer proves the path healthy, also a
// replica that finishes after the item was delivered elsewhere.
func TestCoreLateReplicaSuccessHealsPath(t *testing.T) {
	c := NewCore(Greedy, 2, 3, Options{
		MaxRetries: 10,
		Backoff:    BackoffConfig{Base: time.Second},
		Breaker:    BreakerConfig{Threshold: 2, Cooldown: time.Second},
	})
	idle(t, c, 0, Assign, 0)
	idle(t, c, 2, Assign, 1)
	// Path 1 fails two replicas of item 0: streak 2, breaker open until 1.
	for k, want := range []float64{1, 2} {
		idle(t, c, 1, Duplicate, 0)
		if f := c.Failed(0, 1, 0); f.Backoff != want || f.Opened != (k == 1) || f.Requeued {
			t.Fatalf("failure %d: %+v", k, f)
		}
	}
	// It comes back as the half-open probe with a third replica, which
	// finishes in the same instant path 0 wins the item.
	if d := c.Idle(1, 1); !d.Probe || d.Action != Duplicate || d.Item != 0 {
		t.Fatalf("probe: %+v", d)
	}
	if s := c.Succeeded(0, 0); !s.Won || len(s.Cancel) != 1 || s.Cancel[0] != 1 {
		t.Fatalf("winner: %+v", s)
	}
	if s := c.Succeeded(0, 1); s.Won || !s.Closed {
		t.Fatalf("late replica: %+v; want lost race, breaker re-closed", s)
	}
	// Healed: no probe, and the next failure is the first of a new streak.
	if d := c.Idle(1, 1); d.Probe || d.Action != Duplicate || d.Item != 1 {
		t.Fatalf("after late success: %+v", d)
	}
	if f := c.Failed(1, 1, 1); f.Backoff != 1 || f.Opened {
		t.Fatalf("failure after late success: %+v; want a fresh streak and a closed breaker", f)
	}
}

// Ruling (b): a failure on an item that is already delivered costs the
// path (breaker, backoff streak) but not the item.
func TestCoreFailureAfterDeliveryNotCharged(t *testing.T) {
	c := NewCore(Greedy, 1, 2, Options{
		MaxRetries: 1,
		Backoff:    BackoffConfig{Base: time.Second},
		Breaker:    BreakerConfig{Threshold: 1, Cooldown: time.Second},
	})
	idle(t, c, 0, Assign, 0)
	idle(t, c, 1, Duplicate, 0)
	if s := c.Succeeded(0, 0); !s.Won || len(s.Cancel) != 1 {
		t.Fatalf("winner: %+v", s)
	}
	// Path 1's replica died on its own in the same instant, before the
	// cancellation reached it.
	f := c.Failed(0, 1, 5)
	if f.Attempts != 0 || f.Exhausted || f.Requeued {
		t.Fatalf("delivered item was charged: %+v", f)
	}
	if !f.Opened || f.Backoff != 1 {
		t.Fatalf("path health must still take the hit: %+v", f)
	}
	if d := c.Idle(1, 5); d.Action != Wait || d.Until != 6 {
		t.Fatalf("Idle = %+v; want the opened breaker to hold until 6", d)
	}
}
