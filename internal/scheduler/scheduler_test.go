package scheduler

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakePath transfers items at a fixed byte rate using real (short)
// sleeps, honouring cancellation with proportional partial bytes — the
// contract real HTTP paths provide.
type fakePath struct {
	name string
	rate float64 // bytes per second

	mu       sync.Mutex
	failures map[int]int // itemID → remaining failures to inject
	count    atomic.Int32
}

func (p *fakePath) Name() string { return p.name }

func (p *fakePath) Transfer(ctx context.Context, item Item) (int64, error) {
	p.count.Add(1)
	p.mu.Lock()
	if p.failures[item.ID] > 0 {
		p.failures[item.ID]--
		p.mu.Unlock()
		return 0, fmt.Errorf("injected failure for item %d", item.ID)
	}
	p.mu.Unlock()
	dur := time.Duration(float64(item.Size) / p.rate * float64(time.Second))
	start := time.Now()
	select {
	case <-time.After(dur):
		return item.Size, nil
	case <-ctx.Done():
		frac := float64(time.Since(start)) / float64(dur)
		if frac > 1 {
			frac = 1
		}
		return int64(frac * float64(item.Size)), ctx.Err()
	}
}

func mkItems(n int, size int64) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: i, Name: fmt.Sprintf("item%d", i), Size: size}
	}
	return items
}

func TestAlgoString(t *testing.T) {
	if Greedy.String() != "GRD" || RoundRobin.String() != "RR" || MinTime.String() != "MIN" {
		t.Error("Algo.String mismatch")
	}
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Greedy, mkItems(1, 10), nil, Options{}); err == nil {
		t.Error("no paths accepted")
	}
	bad := []Item{{ID: 5}}
	p := &fakePath{name: "p", rate: 1e6}
	if _, err := Run(ctx, Greedy, bad, []Path{p}, Options{}); err == nil {
		t.Error("non-dense IDs accepted")
	}
	if _, err := Run(ctx, Algo(99), mkItems(1, 10), []Path{p}, Options{}); err == nil {
		t.Error("unknown algo accepted")
	}
}

func TestEmptyTransaction(t *testing.T) {
	p := &fakePath{name: "p", rate: 1e6}
	rep, err := Run(context.Background(), Greedy, nil, []Path{p}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalBytes() != 0 || len(rep.ItemDone) != 0 {
		t.Errorf("empty transaction produced %+v", rep)
	}
}

func TestAllAlgosCompleteAllItems(t *testing.T) {
	for _, algo := range []Algo{Greedy, RoundRobin, MinTime} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			paths := []Path{
				&fakePath{name: "adsl", rate: 200e3},
				&fakePath{name: "ph1", rate: 120e3},
				&fakePath{name: "ph2", rate: 80e3},
			}
			items := mkItems(12, 2000)
			rep, err := Run(context.Background(), algo, items, paths, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(rep.ItemDone); got != 12 {
				t.Errorf("report has %d completion times, want 12", got)
			}
			var totalItems int
			for _, st := range rep.PerPath {
				totalItems += st.Items
			}
			if totalItems != 12 {
				t.Errorf("winning items = %d, want 12", totalItems)
			}
			for i, d := range rep.ItemDone {
				if d <= 0 {
					t.Errorf("item %d has no completion time", i)
				}
			}
		})
	}
}

func TestRoundRobinDealsCyclically(t *testing.T) {
	p1 := &fakePath{name: "a", rate: 1e6}
	p2 := &fakePath{name: "b", rate: 1e6}
	rep, err := Run(context.Background(), RoundRobin, mkItems(7, 500), []Path{p1, p2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerPath["a"].Items != 4 || rep.PerPath["b"].Items != 3 {
		t.Errorf("RR split = %d/%d, want 4/3", rep.PerPath["a"].Items, rep.PerPath["b"].Items)
	}
}

func TestGreedyFavorsFastPath(t *testing.T) {
	fast := &fakePath{name: "fast", rate: 1000e3}
	slow := &fakePath{name: "slow", rate: 100e3}
	rep, err := Run(context.Background(), Greedy, mkItems(11, 5000), []Path{fast, slow}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerPath["fast"].Items <= rep.PerPath["slow"].Items {
		t.Errorf("fast path won %d items vs slow %d; want fast > slow",
			rep.PerPath["fast"].Items, rep.PerPath["slow"].Items)
	}
}

func TestGreedyBeatsRoundRobinWithAsymmetricPaths(t *testing.T) {
	mk := func() []Path {
		return []Path{
			&fakePath{name: "fast", rate: 1000e3},
			&fakePath{name: "slow", rate: 100e3},
		}
	}
	items := mkItems(10, 10000)
	grd, err := Run(context.Background(), Greedy, items, mk(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(context.Background(), RoundRobin, items, mk(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// RR parks 5 items on the slow path (≥500 ms); GRD keeps the fast
	// path busy and duplicates the endgame stragglers.
	if grd.Elapsed >= rr.Elapsed {
		t.Errorf("GRD %v not faster than RR %v", grd.Elapsed, rr.Elapsed)
	}
}

func TestGreedyEndgameDuplication(t *testing.T) {
	// One item, two paths: the idle path must duplicate it immediately.
	fast := &fakePath{name: "fast", rate: 500e3}
	slow := &fakePath{name: "slow", rate: 50e3}
	items := mkItems(1, 50000) // 0.1s on fast, 1s on slow
	rep, err := Run(context.Background(), Greedy, items, []Path{slow, fast}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duplicates == 0 {
		t.Error("no endgame duplication occurred")
	}
	// The fast replica should win: elapsed well under the slow path's 1s.
	if rep.Elapsed > 600*time.Millisecond {
		t.Errorf("elapsed %v suggests duplication didn't help", rep.Elapsed)
	}
	if rep.WastedBytes <= 0 {
		t.Error("losing replica moved bytes that must be accounted as waste")
	}
}

func TestGreedyDisableDuplication(t *testing.T) {
	fast := &fakePath{name: "fast", rate: 500e3}
	slow := &fakePath{name: "slow", rate: 50e3}
	rep, err := Run(context.Background(), Greedy, mkItems(2, 20000), []Path{slow, fast},
		Options{DisableDuplication: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duplicates != 0 || rep.WastedBytes != 0 {
		t.Errorf("duplication happened despite being disabled: %+v", rep)
	}
}

func TestGreedyWasteBound(t *testing.T) {
	// Property: wasted bytes ≤ (N−1)·Sm (the paper's §4.1.1 bound).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		n := 2 + rng.Intn(3)
		paths := make([]Path, n)
		for i := range paths {
			paths[i] = &fakePath{name: fmt.Sprintf("p%d", i), rate: float64(50e3 * (1 + rng.Intn(10)))}
		}
		m := 3 + rng.Intn(8)
		items := make([]Item, m)
		var maxSize int64
		for i := range items {
			size := int64(1000 + rng.Intn(20000))
			if size > maxSize {
				maxSize = size
			}
			items[i] = Item{ID: i, Name: fmt.Sprintf("i%d", i), Size: size}
		}
		rep, err := Run(context.Background(), Greedy, items, paths, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bound := int64(n-1) * maxSize
		if rep.WastedBytes > bound {
			t.Errorf("trial %d: waste %d exceeds bound %d", trial, rep.WastedBytes, bound)
		}
	}
}

func TestMinTimeUsesEstimates(t *testing.T) {
	// With accurate initial estimates and stable rates, MIN should route
	// most items to the fast path.
	fast := &fakePath{name: "fast", rate: 1000e3}
	slow := &fakePath{name: "slow", rate: 50e3}
	rep, err := Run(context.Background(), MinTime, mkItems(9, 5000), []Path{slow, fast}, Options{
		InitialBandwidth: map[string]float64{"fast": 8e6, "slow": 400e3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerPath["fast"].Items <= rep.PerPath["slow"].Items {
		t.Errorf("MIN routed %d to fast vs %d to slow; want majority on fast",
			rep.PerPath["fast"].Items, rep.PerPath["slow"].Items)
	}
}

func TestMinTimeMisledByBadEstimates(t *testing.T) {
	// Estimates inverted: MIN piles items on the actually-slow path and
	// pays for it — the paper's observed failure mode.
	mk := func() (Path, Path) {
		return &fakePath{name: "fast", rate: 1000e3}, &fakePath{name: "slow", rate: 50e3}
	}
	items := mkItems(8, 8000)
	f1, s1 := mk()
	misled, err := Run(context.Background(), MinTime, items, []Path{f1, s1}, Options{
		InitialBandwidth: map[string]float64{"fast": 100e3, "slow": 80e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	f2, s2 := mk()
	grd, err := Run(context.Background(), Greedy, items, []Path{f2, s2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if misled.Elapsed <= grd.Elapsed {
		t.Errorf("misled MIN (%v) should lose to GRD (%v)", misled.Elapsed, grd.Elapsed)
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	p := &fakePath{name: "flaky", rate: 1e6, failures: map[int]int{1: 2}}
	rep, err := Run(context.Background(), RoundRobin, mkItems(3, 1000), []Path{p}, Options{})
	if err != nil {
		t.Fatalf("transient failures should be retried: %v", err)
	}
	if rep.PerPath["flaky"].Items != 3 {
		t.Errorf("items = %d, want 3", rep.PerPath["flaky"].Items)
	}
}

func TestRetryExhaustionFailsTransaction(t *testing.T) {
	p := &fakePath{name: "dead", rate: 1e6, failures: map[int]int{0: 100}}
	_, err := Run(context.Background(), RoundRobin, mkItems(1, 1000), []Path{p}, Options{MaxRetries: 2})
	if err == nil {
		t.Fatal("permanently failing item did not fail the transaction")
	}
}

func TestGreedyRetriesOnOtherPath(t *testing.T) {
	// Item 0 always fails on "dead" but succeeds elsewhere; greedy must
	// recover via requeue.
	dead := &fakePath{name: "dead", rate: 1e9, failures: map[int]int{0: 1000, 1: 1000}}
	ok := &fakePath{name: "ok", rate: 200e3}
	rep, err := Run(context.Background(), Greedy, mkItems(2, 2000), []Path{dead, ok}, Options{})
	if err != nil {
		t.Fatalf("greedy could not route around failing path: %v", err)
	}
	if rep.PerPath["ok"].Items != 2 {
		t.Errorf("ok path won %d items, want 2", rep.PerPath["ok"].Items)
	}
}

func TestContextCancellationAborts(t *testing.T) {
	for _, algo := range []Algo{Greedy, RoundRobin, MinTime} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithCancel(context.Background())
			p := &fakePath{name: "p", rate: 10e3} // 10 KB/s: slow
			errCh := make(chan error, 1)
			go func() {
				_, err := Run(ctx, algo, mkItems(4, 50000), []Path{p}, Options{})
				errCh <- err
			}()
			time.Sleep(50 * time.Millisecond)
			cancel()
			select {
			case err := <-errCh:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Run did not return after cancellation")
			}
		})
	}
}

func TestItemDoneTimesAreWithinElapsed(t *testing.T) {
	paths := []Path{
		&fakePath{name: "a", rate: 300e3},
		&fakePath{name: "b", rate: 200e3},
	}
	rep, err := Run(context.Background(), Greedy, mkItems(6, 3000), paths, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range rep.ItemDone {
		if d > rep.Elapsed+10*time.Millisecond {
			t.Errorf("item %d done at %v after transaction end %v", i, d, rep.Elapsed)
		}
	}
}

func TestPlayoutCompletesAllItems(t *testing.T) {
	paths := []Path{
		&fakePath{name: "fast", rate: 500e3},
		&fakePath{name: "slow", rate: 100e3},
	}
	rep, err := Run(context.Background(), Playout, mkItems(8, 4000), paths, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var won int
	for _, st := range rep.PerPath {
		won += st.Items
	}
	if won != 8 {
		t.Errorf("items won = %d, want 8", won)
	}
	if Playout.String() != "PLAYOUT" {
		t.Error("Playout.String mismatch")
	}
}

func TestPlayoutDuplicatesHeadOfLine(t *testing.T) {
	// Two items both in flight on the slow path while the fast path goes
	// idle: Playout must duplicate item 0 (the head-of-line blocker)
	// first, even when item 1 was assigned later (greedy's oldest-seq
	// tie-break would pick item 0 here too, so distinguish by replica
	// count: greedy prefers fewest replicas; playout always lowest ID).
	// Construct: 3 items; slow path gets item1 and then duplicates are
	// examined. We assert the observable outcome instead: item 0's
	// completion time is never after item 1's under Playout.
	paths := []Path{
		&fakePath{name: "fast", rate: 400e3},
		&fakePath{name: "slow", rate: 50e3},
	}
	rep, err := Run(context.Background(), Playout, mkItems(6, 8000), paths, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rep.ItemDone); i++ {
		// In-order-friendly delivery: each item's completion is within
		// one slow-item duration of its predecessor (no long head-of-line
		// inversions).
		gap := rep.ItemDone[i] - rep.ItemDone[i-1]
		if gap < -200*time.Millisecond {
			t.Errorf("item %d finished %v before item %d; head-of-line ignored",
				i, -gap, i-1)
		}
	}
}

// fakeClock is a clock.Clock that moves only when slept on: transfers
// take no time at all, and every sleep is on the record.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	slept time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	c.slept += d
}

// Nothing sleeps here, so the injected clock stands still and every
// transfer measures zero elapsed time: the setting a virtual-time
// harness runs the live driver in. MIN used to feed a path its next
// item only after a sample of positive length and never returned.
func TestZeroElapsedClockCompletes(t *testing.T) {
	for _, algo := range []Algo{Greedy, Playout, RoundRobin, MinTime} {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		paths := []Path{&fakePath{name: "a", rate: 1e12}, &fakePath{name: "b", rate: 1e12}}
		rep, err := Run(ctx, algo, mkItems(6, 1000), paths, Options{Clock: &fakeClock{}})
		cancel()
		if err != nil {
			t.Errorf("%v: %v", algo, err)
			continue
		}
		if got := rep.PerPath["a"].Items + rep.PerPath["b"].Items; got != 6 {
			t.Errorf("%v: %d of 6 items delivered", algo, got)
		}
	}
}

// The verdict that ends a transaction carries no backoff: with two
// tries allowed the only sit-out is the one between them. GRD used to
// sleep out a second, doubled one after the item was already lost.
func TestExhaustionReturnsWithoutBackoff(t *testing.T) {
	for _, algo := range []Algo{Greedy, RoundRobin} {
		clk := &fakeClock{}
		p := &fakePath{name: "dead", rate: 1e6, failures: map[int]int{0: 99}}
		_, err := Run(context.Background(), algo, mkItems(1, 1000), []Path{p}, Options{
			MaxRetries: 2,
			Backoff:    BackoffConfig{Base: 300 * time.Millisecond},
			Clock:      clk,
		})
		var ie *ItemError
		if !errors.As(err, &ie) || ie.Attempts != 2 {
			t.Errorf("%v: err = %v; want an *ItemError after 2 attempts", algo, err)
		}
		if clk.slept != 300*time.Millisecond {
			t.Errorf("%v: slept %v on the way to exhaustion; want one 300ms backoff", algo, clk.slept)
		}
	}
}

// Run leaves no goroutine behind, however the transaction ends: every
// attempt has returned and every timer is disarmed or drained when it
// returns.
func TestRunLeavesNoGoroutine(t *testing.T) {
	const hour = time.Hour
	failing := func(name string, n int) *fakePath {
		f := map[int]int{}
		for i := 0; i < n; i++ {
			f[i] = 1000
		}
		return &fakePath{name: name, rate: 1e6, failures: f}
	}
	waits, backoffs := newTestLog(), newTestLog()
	for _, tc := range []struct {
		name    string
		items   []Item
		paths   []Path
		opts    Options
		timeout time.Duration // cancels the caller's ctx this long in, when set
		check   func(*Report, error) error
	}{{
		name:  "delivered, losers cancelled",
		items: mkItems(3, 10_000),
		paths: []Path{&fakePath{name: "adsl", rate: 1e6}, &fakePath{name: "phone1", rate: 1e5}},
		check: func(rep *Report, err error) error {
			if err == nil && rep.Duplicates == 0 {
				return errors.New("no replica was launched")
			}
			return err
		},
	}, {
		name:    "ctx cancelled mid-attempt",
		items:   mkItems(1, 1e6),
		paths:   []Path{&fakePath{name: "adsl", rate: 1e3}},
		timeout: 50 * time.Millisecond,
		check: func(_ *Report, err error) error {
			if !errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("err = %v; want the ctx's", err)
			}
			return nil
		},
	}, {
		name:  "exhausted",
		items: mkItems(1, 100),
		paths: []Path{failing("adsl", 1), failing("phone1", 1)},
		opts:  Options{MaxRetries: 2},
		check: func(_ *Report, err error) error {
			var ie *ItemError
			if !errors.As(err, &ie) {
				return fmt.Errorf("err = %v; want an *ItemError", err)
			}
			return nil
		},
	}, {
		name:  "a path waits at the last delivery",
		items: mkItems(4, 1000),
		paths: []Path{&fakePath{name: "adsl", rate: 1e5}, failing("phone1", 4)},
		opts:  Options{MaxRetries: 3, Breaker: BreakerConfig{Threshold: 1, Cooldown: hour}, Events: waits},
		check: func(_ *Report, err error) error {
			if err == nil && points(waits.Events(), "scheduler.breaker_open", "phone1") == 0 {
				return errors.New("phone1's breaker never opened")
			}
			return err
		},
	}, {
		name:  "a backoff in progress",
		items: mkItems(4, 1000),
		paths: []Path{&fakePath{name: "adsl", rate: 1e5}, failing("phone1", 4)},
		opts:  Options{MaxRetries: 3, Backoff: BackoffConfig{Base: hour}, Events: backoffs},
		check: func(_ *Report, err error) error {
			if err == nil && points(backoffs.Events(), "scheduler.backoff", "phone1") == 0 {
				return errors.New("phone1 never backed off")
			}
			return err
		},
	}, {
		name:  "a stall abort",
		items: mkItems(3, 100),
		paths: []Path{&stallyPath{name: "phone1", stallsLeft: map[int]int{0: 1}}},
		opts:  Options{StallTimeout: 20 * time.Millisecond, MaxRetries: 2},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			if tc.timeout > 0 {
				ctx, cancel = context.WithTimeout(context.Background(), tc.timeout)
			}
			defer cancel()
			before := runtime.NumGoroutine()
			rep, err := Run(ctx, Greedy, tc.items, tc.paths, tc.opts)
			if tc.check == nil {
				tc.check = func(_ *Report, err error) error { return err }
			}
			if err := tc.check(rep, err); err != nil {
				t.Fatal(err)
			}
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(10 * time.Millisecond)
			}
			if n > before {
				t.Errorf("%d goroutines after Run, %d before", n, before)
			}
		})
	}
}

// cancelPath is a path whose attempts report on started and then hold
// until ctx is cancelled, when they return what finish says.
type cancelPath struct {
	name    string
	started chan<- string
	finish  func(ctx context.Context) (int64, error)
}

func (p *cancelPath) Name() string { return p.name }

func (p *cancelPath) Transfer(ctx context.Context, _ Item) (int64, error) {
	p.started <- p.name
	<-ctx.Done()
	return p.finish(ctx)
}

// When the caller cancels a transaction while two replicas carry its
// item, one replica returning the ctx's error at once and the other
// delivering the item after that, Run still ends with the ctx's error:
// the winner's outcome must not cancel the rival, whose cancelled attempt
// is already settled.
func TestCancelledRunSettlesALateWinner(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started, quickDone := make(chan string, 2), make(chan struct{})
	quick := &cancelPath{name: "quick", started: started, finish: func(ctx context.Context) (int64, error) {
		defer close(quickDone)
		return 0, ctx.Err()
	}}
	late := &cancelPath{name: "late", started: started, finish: func(context.Context) (int64, error) {
		<-quickDone
		time.Sleep(50 * time.Millisecond) // quick's outcome is settled first
		return 1000, nil
	}}
	errCh := make(chan error, 1)
	go func() {
		_, err := Run(ctx, Greedy, mkItems(1, 1000), []Path{quick, late}, Options{})
		errCh <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("the item and its replica did not both start")
		}
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v; want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}
