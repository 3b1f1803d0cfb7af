package scheduler

import (
	"math"
	"slices"
	"testing"
	"time"
)

// The decision core is clockless and single-threaded, so its tests are
// scripts: ask Idle, report an outcome, compare the verdict.

// newCore is NewCore for scripts that care about neither item sizes nor
// path names.
func newCore(algo Algo, items, paths int, opts Options) *Core {
	return NewCore(algo, make([]int64, items), make([]string, paths), opts)
}

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
	c := newCore(Greedy, 4, 1, Options{
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
			if s := c.Succeeded(d.Item, 0, 0, 0); !s.Won || s.Closed != st.reclosed {
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
	c := newCore(Greedy, 1, 1, Options{MaxRetries: 50})
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
	c := newCore(Greedy, 3, 2, Options{})
	idle(t, c, 0, Assign, 0)
	idle(t, c, 1, Assign, 1) // item 0 is in flight and duplicable, but item 1 is pending
	if s := c.Succeeded(1, 1, 0, 0); !s.Won || len(s.Cancel) != 0 {
		t.Fatalf("Succeeded = %+v", s)
	}
	idle(t, c, 1, Assign, 2)
	if s := c.Succeeded(2, 1, 0, 0); !s.Won {
		t.Fatalf("Succeeded = %+v", s)
	}
	idle(t, c, 1, Duplicate, 0) // queue drained: now the endgame
	if s := c.Succeeded(0, 1, 0, 0); !s.Won || len(s.Cancel) != 1 || s.Cancel[0] != 0 {
		t.Fatalf("winner must be told to cancel path 0's replica: %+v", s)
	}
	if s := c.Succeeded(0, 0, 0, 0); s.Won || len(s.Cancel) != 0 {
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
		c := newCore(tc.algo, 3, 4, Options{})
		idle(t, c, 0, Assign, 0)
		idle(t, c, 1, Assign, 1)
		idle(t, c, 2, Assign, 2)
		c.Succeeded(1, 1, 0, 0)
		tc.setup(c)
		if d := c.Idle(1, 0); d.Action != Duplicate || d.Item != tc.want {
			t.Errorf("%s: Idle = %+v; want duplicate of item %d", tc.name, d, tc.want)
		}
	}
}

func TestCoreDisableDuplicationParks(t *testing.T) {
	c := newCore(Greedy, 1, 2, Options{DisableDuplication: true})
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
	c := newCore(Greedy, 2, 2, Options{MaxRetries: 2})
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
	if s := c.Succeeded(1, 0, 0, 0); !s.Won || len(s.Cancel) != 1 || s.Cancel[0] != 1 {
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
	c := newCore(Greedy, 1, 3, Options{})
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
	c := newCore(Greedy, 2, 3, Options{
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
	if s := c.Succeeded(0, 0, 0, 0); !s.Won || len(s.Cancel) != 1 || s.Cancel[0] != 1 {
		t.Fatalf("winner: %+v", s)
	}
	if s := c.Succeeded(0, 1, 0, 0); s.Won || !s.Closed {
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
	c := newCore(Greedy, 1, 2, Options{
		MaxRetries: 1,
		Backoff:    BackoffConfig{Base: time.Second},
		Breaker:    BreakerConfig{Threshold: 1, Cooldown: time.Second},
	})
	idle(t, c, 0, Assign, 0)
	idle(t, c, 1, Duplicate, 0)
	if s := c.Succeeded(0, 0, 0, 0); !s.Won || len(s.Cancel) != 1 {
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

// ----- fixed-queue policies (RR, MIN) -----

// namedCore is a two-path core over paths "a" and "b".
func namedCore(algo Algo, sizes []int64, opts Options) *Core {
	return NewCore(algo, sizes, []string{"a", "b"}, opts)
}

func TestCoreRoundRobinDealsCyclically(t *testing.T) {
	c := newCore(RoundRobin, 7, 3, Options{})
	for p, want := range [][]int{{0, 3, 6}, {1, 4}, {2, 5}} {
		for _, it := range want {
			idle(t, c, p, Assign, it) // its own queue, in order
			if s := c.Succeeded(it, p, 0, 0); !s.Won || len(s.Cancel) != 0 {
				t.Fatalf("Succeeded(%d, %d) = %+v", it, p, s)
			}
		}
		idle(t, c, p, Park, 0) // an empty queue parks the path: no stealing
	}
}

func TestCoreFixedQueueRetriesAtTheHead(t *testing.T) {
	for _, tc := range []struct {
		algo Algo
		next int // what path 1 carries after item 1
	}{
		{RoundRobin, 3}, // dealt [0 2] and [1 3] up front
		{MinTime, 2},    // seeded [0] and [1]; the finishing path is fed in order
	} {
		c := newCore(tc.algo, 4, 2, Options{MaxRetries: 3})
		idle(t, c, 0, Assign, 0)
		idle(t, c, 1, Assign, 1)
		if f := c.Failed(0, 0, 0); f.Requeued || f.Exhausted || f.Attempts != 1 {
			t.Fatalf("%v try 1: %+v; a fixed-queue failure reassigns nothing", tc.algo, f)
		}
		if s := c.Succeeded(1, 1, 0, 0); !s.Won {
			t.Fatalf("%v: %+v", tc.algo, s)
		}
		idle(t, c, 1, Assign, tc.next) // path 1 moves on; item 0 is not its business
		idle(t, c, 0, Assign, 0)       // and path 0 retries item 0 before anything behind it
		if f := c.Failed(0, 0, 0); f.Requeued || f.Exhausted || f.Attempts != 2 {
			t.Fatalf("%v try 2: %+v", tc.algo, f)
		}
		idle(t, c, 0, Assign, 0)
		// The path's own budget is the whole budget: path 1 never failed
		// the item, and never will be asked to try.
		if f := c.Failed(0, 0, 0); !f.Exhausted || f.Everywhere || f.Attempts != 3 || f.Requeued {
			t.Fatalf("%v try 3: %+v; want exhausted on this path alone after 3 attempts", tc.algo, f)
		}
	}
}

func TestCoreFixedQueuesIgnoreBreakerAndDuplication(t *testing.T) {
	for _, algo := range []Algo{RoundRobin, MinTime} {
		c := newCore(algo, 1, 2, Options{
			MaxRetries: 10,
			Breaker:    BreakerConfig{Threshold: 1, Cooldown: time.Hour},
		})
		idle(t, c, 0, Assign, 0)
		idle(t, c, 1, Park, 0) // item 0 is in flight and path 1 is idle: GRD would duplicate
		for k := 0; k < 5; k++ {
			if f := c.Failed(0, 0, 0); f.Opened {
				t.Fatalf("%v failure %d: %+v; no breaker on a path that cannot be routed around", algo, k, f)
			}
			if d := c.Idle(0, 0); d.Action != Assign || d.Item != 0 || d.Probe {
				t.Fatalf("%v failure %d: Idle = %+v; want the head of the queue again", algo, k, d)
			}
		}
	}
}

// Ruling (c), DESIGN.md §10: a path carries nothing between
// two tries of an item, so its failure streak is the retry index the
// deleted per-item loop counted, and the seeded jitter stream is drawn
// in the same order.
func TestCoreFixedQueueBackoffIndexIsTheRetryIndex(t *testing.T) {
	cfg := BackoffConfig{Base: time.Second, Jitter: 0.5, Seed: 7}
	c := newCore(RoundRobin, 2, 1, Options{MaxRetries: 4, Backoff: cfg})
	ref := newBackoff(cfg)
	for _, it := range []int{0, 1} {
		for k := 0; k < 3; k++ { // a fresh index for each item
			idle(t, c, 0, Assign, it)
			if f, want := c.Failed(it, 0, 0), ref.delay(k); f.Backoff != want {
				t.Fatalf("item %d retry %d: backoff %v, want %v", it, k, f.Backoff, want)
			}
		}
		idle(t, c, 0, Assign, it)
		c.Succeeded(it, 0, 0, 0)
	}
}

// Ruling (d): the failure that exhausts an item ends the transaction,
// so it names no backoff — under every policy.
func TestCoreExhaustionCarriesNoBackoff(t *testing.T) {
	for _, algo := range []Algo{Greedy, Playout, RoundRobin, MinTime} {
		c := newCore(algo, 1, 1, Options{MaxRetries: 2, Backoff: BackoffConfig{Base: time.Second}})
		idle(t, c, 0, Assign, 0)
		if f := c.Failed(0, 0, 0); f.Exhausted || f.Backoff != 1 {
			t.Fatalf("%v try 1: %+v", algo, f)
		}
		idle(t, c, 0, Assign, 0)
		if f := c.Failed(0, 0, 0); !f.Exhausted || f.Backoff != 0 || f.Attempts != 2 {
			t.Fatalf("%v try 2: %+v; want exhausted, no backoff", algo, f)
		}
	}
}

func TestCoreMinSeedsFeedsAndDealsOnce(t *testing.T) {
	sizes := []int64{1000, 1000, 1000, 1000, 1000, 1000, 1000}
	c := namedCore(MinTime, sizes, Options{})
	queues := func(want ...[]int) {
		t.Helper()
		for p := range want {
			if !slices.Equal(c.queues[p], want[p]) {
				t.Fatalf("queues = %v, want %v", c.queues, want)
			}
		}
	}
	est := func(p int, want float64) {
		t.Helper()
		if got := c.paths[p].est; math.Abs(got-want) > 1e-6 {
			t.Fatalf("path %d estimate = %v, want %v", p, got, want)
		}
	}
	queues([]int{0}, []int{1}) // the first round: one item per path, in path order
	est(0, 1e6)                // no InitialBandwidth: 1 Mbps
	if d := c.Idle(0, 0); d.Action != Assign || d.Item != 0 {
		t.Fatalf("Idle = %+v", d)
	}
	if d := c.Idle(1, 0); d.Action != Assign || d.Item != 1 {
		t.Fatalf("Idle = %+v", d)
	}

	// Path a delivers at 8 kbit/s. Path b has no sample yet, so the round
	// is still open and a is kept busy with the next item in order.
	c.Succeeded(0, 0, 1000, 1)
	est(0, 0.75*8000+0.25*1e6)
	queues([]int{2}, []int{1})
	if d := c.Idle(0, 1); d.Action != Assign || d.Item != 2 {
		t.Fatalf("Idle = %+v", d)
	}
	c.Succeeded(2, 0, 1000, 2) // 1 s since Idle handed it out, not since the transaction started
	est(0, 0.75*8000+0.25*(0.75*8000+0.25*1e6))
	queues([]int{3}, []int{1})

	// Path b's first sample closes the round: 3200 bit/s smoothed against
	// 1 Mbps still reads 252 kbit/s, three times a's 70 kbit/s, and a has
	// item 3 on its books. Everything left is dealt now, by estimate.
	c.Succeeded(1, 1, 1000, 2.5)
	est(1, 0.75*3200+0.25*1e6)
	queues([]int{3}, []int{4, 5, 6})
	if got := c.paths[1].backlog; got != 3000 {
		t.Fatalf("path b backlog = %d after the deal, want 3000", got)
	}

	// Dealt once, never rebalanced: a empties its queue and parks while b
	// still has two items waiting, whatever the estimates say by then.
	idle(t, c, 0, Assign, 3)
	idle(t, c, 1, Assign, 4)
	c.Succeeded(3, 0, 1e9, 2.6)
	idle(t, c, 0, Park, 0)
	queues(nil, []int{4, 5, 6})
	if f := c.Failed(4, 1, 3); f.Requeued { // a failure moves nothing and samples nothing
		t.Fatalf("Failed = %+v", f)
	}
	est(1, 0.75*3200+0.25*1e6)
	idle(t, c, 0, Park, 0)
	queues(nil, []int{4, 5, 6})
	if got := c.paths[1].backlog; got != 3000 {
		t.Fatalf("path b backlog = %d after a failure, want 3000: it shrinks only on delivery", got)
	}
}

func TestCoreMinAlphaAndTies(t *testing.T) {
	c := namedCore(MinTime, []int64{500, 500, 500, 500, 500}, Options{MinAlpha: 0.5})
	c.Idle(0, 0)
	c.Idle(1, 0)
	c.Succeeded(0, 0, 500, 1) // 4000 bit/s at weight 0.5; a is fed item 2
	c.Succeeded(1, 1, 500, 1) // the same sample: equal estimates as the round closes
	if want := 0.5*4000 + 0.5*1e6; c.paths[0].est != want || c.paths[1].est != want {
		t.Fatalf("estimates = %v, %v; want %v", c.paths[0].est, c.paths[1].est, want)
	}
	// Item 3 goes to b, because a has item 2 on its books; that evens the
	// backlogs, and the tie over item 4 goes to the lowest path index.
	if q := c.queues; len(q[0]) != 2 || q[0][1] != 4 || len(q[1]) != 1 || q[1][0] != 3 {
		t.Fatalf("queues = %v, want [[2 4] [3]]", q)
	}
}

// The paper's reason MIN loses: a wrong prior outlives the first sample.
// Path "a" really moves 8 Mbit/s and "b" 400 kbit/s; told the opposite,
// one smoothed sample each leaves b looking three times faster and it
// is dealt the whole tail.
func TestCoreMinMisledByInitialBandwidth(t *testing.T) {
	sizes := []int64{1e6, 50e3, 1e5, 1e5, 1e5, 1e5, 1e5, 1e5}
	script := func(opts Options) (a, b int) {
		c := namedCore(MinTime, sizes, opts)
		c.Idle(0, 0)
		c.Idle(1, 0)
		c.Succeeded(0, 0, 1e6, 1)  // 8 Mbit/s; a takes item 2 while b is unsampled
		c.Succeeded(1, 1, 50e3, 1) // 400 kbit/s; the round closes and the tail is dealt
		return len(c.queues[0]), len(c.queues[1])
	}
	if a, b := script(Options{}); a != 6 || b != 0 {
		t.Errorf("honest prior: a holds %d, b %d; want all 6 on the fast path", a, b)
	}
	a, b := script(Options{InitialBandwidth: map[string]float64{"a": 100e3, "b": 80e6}})
	if a != 1 || b != 5 {
		t.Errorf("inverted prior: a holds %d, b %d; want the tail of 5 piled on the slow path", a, b)
	}
}

// Ruling (f): a transfer that measured no elapsed time leaves the
// estimate alone but still counts as the path's sample and still gets
// the path its next item — a stopped clock must not stop the deal.
func TestCoreMinZeroLengthSample(t *testing.T) {
	c := namedCore(MinTime, []int64{100, 100, 100, 100, 100}, Options{})
	c.Idle(0, 5)
	c.Idle(1, 5)
	c.Succeeded(0, 0, 100, 5)
	if pp := c.paths[0]; pp.est != 1e6 || !pp.sampled || pp.backlog != 100 {
		t.Fatalf("path a = %+v; want estimate untouched, sampled, fed item 2", pp)
	}
	idle(t, c, 0, Assign, 2)
	c.Succeeded(1, 1, 100, 5)
	if c.next != 5 {
		t.Fatalf("dealt %d of 5 items; every path is sampled, the tail must be dealt", c.next)
	}
}

// rangedPaths is a Splitter over paths that all carry ranges and whose
// attempts cannot be cut, as upload paths are.
type rangedPaths struct{}

func (rangedPaths) Ranged(int) bool                              { return true }
func (rangedPaths) Left(int) (int64, bool)                       { return 0, false }
func (rangedPaths) Cut(int, float64, int64) (int64, int64, bool) { return 0, 0, false }

// The assignment-time rule divides the last pending items between the
// paths by their estimates, the idle paths that ask next included: two
// paths that free up together with equal estimates take half the work
// left each, whole items while they fit in it; a path that then slows
// takes its estimate's share of the work left — the rest waiting on the
// pool plus what the busy path is expected to have left.
func TestCoreFillDividesByRate(t *testing.T) {
	const mb = 1 << 20
	// Two paths free up together, each at 1 MB/s, with 8 MB left: half
	// each.
	c := NewCore(Greedy, []int64{mb, mb, 8 * mb}, []string{"a", "b"}, Options{})
	c.SetSplitter(rangedPaths{})
	idle(t, c, 0, Assign, 0)
	idle(t, c, 1, Assign, 1)
	c.Succeeded(0, 0, mb, 1)
	c.Succeeded(1, 1, mb, 1)
	if d := c.Idle(0, 1); d.Action != Piece || d.Item != 2 || d.Off != 0 || d.End != 4*mb {
		t.Fatalf("Idle(0) = %+v, want the first 4 MB of item 2", d)
	}
	if d := c.Idle(1, 1); d.Action != Assign || d.Item != 2 || d.Off != 4*mb || d.End != 8*mb {
		t.Fatalf("Idle(1) = %+v, want the rest of item 2", d)
	}

	c = NewCore(Greedy, []int64{mb, mb, 2 * mb, 8 * mb}, []string{"a", "b"}, Options{})
	c.SetSplitter(rangedPaths{})
	idle(t, c, 0, Assign, 0)
	idle(t, c, 1, Assign, 1)
	c.Succeeded(0, 0, mb, 1) // both at 1 MB/s
	c.Succeeded(1, 1, mb, 1)
	if d := c.Idle(0, 1); d.Action != Assign || d.Item != 2 || d.End != 0 {
		t.Fatalf("Idle(0) = %+v, want all of item 2: its share of 10 MB is 5 MB", d)
	}
	if d := c.Idle(1, 1); d.Action != Piece || d.Item != 3 || d.Off != 0 || d.End != 5*mb {
		t.Fatalf("Idle(1) = %+v, want the first 5 MB of item 3: 2 MB on path 0, 8 pending", d)
	}
	// Path 0 delivers item 2 at 0.5 MB/s, four seconds later; its
	// estimate (α 0.75) is 0.625 MB/s. Path 1 has 1 MB of its piece
	// left, and 3 MB of item 3 wait: path 0 takes 0.625/1.625 of 4 MB.
	c.Succeeded(2, 0, 2*mb, 5)
	d := c.Idle(0, 5)
	work, est0, est1 := float64(4*mb), 0.625*8*mb, 8.0*mb
	want := int64(work * est0 / (est0 + est1))
	if d.Action != Piece || d.Item != 3 || d.Off != 5*mb || d.End != 5*mb+want {
		t.Fatalf("Idle(0) = %+v, want bytes [%d, %d) of item 3", d, 5*mb, 5*mb+want)
	}
}
