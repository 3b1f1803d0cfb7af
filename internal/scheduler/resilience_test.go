package scheduler

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"threegol/internal/obs"
)

// stallyPath is a ProgressPath that silently wedges (no bytes, no
// error) for the first stallsLeft[item] attempts, then transfers
// instantly.
type stallyPath struct {
	name string

	mu         sync.Mutex
	stallsLeft map[int]int
}

func (p *stallyPath) Name() string { return p.name }

func (p *stallyPath) Transfer(ctx context.Context, item Item) (int64, error) {
	return p.TransferProgress(ctx, item, func(int64) {})
}

func (p *stallyPath) TransferProgress(ctx context.Context, item Item, progress func(int64)) (int64, error) {
	p.mu.Lock()
	stall := p.stallsLeft[item.ID] > 0
	if stall {
		p.stallsLeft[item.ID]--
	}
	p.mu.Unlock()
	if stall {
		<-ctx.Done() // wedge until the watchdog (or caller) kills us
		return 0, ctx.Err()
	}
	progress(item.Size)
	return item.Size, nil
}

func TestStallWatchdogAbortsAndRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	p := &stallyPath{name: "phone1", stallsLeft: map[int]int{0: 1, 2: 1}}
	rep, err := Run(context.Background(), Greedy, mkItems(3, 100), []Path{p},
		Options{StallTimeout: 30 * time.Millisecond, MaxRetries: 3, Metrics: m})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := rep.PerPath["phone1"].Items; got != 3 {
		t.Fatalf("completed %d of 3 items", got)
	}
	if got := m.StallAborts.With("phone1").Value(); got != 2 {
		t.Fatalf("stall aborts = %v; want 2", got)
	}
}

func TestStallWatchdogNeedsProgressPath(t *testing.T) {
	// An opaque Path (no TransferProgress) must never be watchdog-
	// aborted, however long it takes.
	p := &fakePath{name: "adsl", rate: 1e4} // 10ms per 100-byte item
	rep, err := Run(context.Background(), Greedy, mkItems(1, 100), []Path{p},
		Options{StallTimeout: time.Millisecond})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.PerPath["adsl"].Items != 1 {
		t.Fatalf("item did not complete: %+v", rep)
	}
}

func TestStallErrorRequeues(t *testing.T) {
	// One path that always wedges for item 0, a second that is clean:
	// the stall abort must requeue the item, not kill the transaction.
	wedge := &stallyPath{name: "phone1", stallsLeft: map[int]int{0: 99, 1: 99}}
	clean := &fakePath{name: "adsl", rate: 1e4} // 100ms per item: slow enough for the watchdog to beat it
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	rep, err := Run(context.Background(), Greedy, mkItems(2, 1000), []Path{clean, wedge},
		Options{StallTimeout: 20 * time.Millisecond, MaxRetries: 2, Metrics: m})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := rep.PerPath["adsl"].Items; got != 2 {
		t.Fatalf("adsl completed %d of 2 (%+v)", got, rep.PerPath)
	}
	if m.StallAborts.With("phone1").Value() == 0 {
		t.Fatal("watchdog never fired on the wedged path")
	}
}

func TestGracefulDegradationADSLOnly(t *testing.T) {
	// The acceptance property: every phone path dead for the whole
	// transaction ⇒ 100% of items complete over ADSL alone, with the
	// breakers ejecting the dead paths instead of burning retries.
	const n = 6
	dead := func(name string) *fakePath {
		f := map[int]int{}
		for i := 0; i < n; i++ {
			f[i] = 1000
		}
		return &fakePath{name: name, rate: 1e6, failures: f}
	}
	adsl := &fakePath{name: "adsl", rate: 1e6}
	phone1, phone2 := dead("phone1"), dead("phone2")
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	rep, err := Run(context.Background(), Greedy, mkItems(n, 1000),
		[]Path{adsl, phone1, phone2},
		Options{
			MaxRetries: 2,
			Backoff:    BackoffConfig{Base: time.Millisecond, Jitter: 0.5, Seed: 1},
			Breaker:    BreakerConfig{Threshold: 2, Cooldown: 10 * time.Millisecond},
			Metrics:    m,
		})
	if err != nil {
		t.Fatalf("transaction failed with a live ADSL path: %v", err)
	}
	if got := rep.PerPath["adsl"].Items; got != n {
		t.Fatalf("adsl delivered %d of %d", got, n)
	}
	for _, phone := range []string{"phone1", "phone2"} {
		if got := rep.PerPath[phone].Items; got != 0 {
			t.Fatalf("%s delivered %d items while dead", phone, got)
		}
	}
	if m.BreakerOpens.With("phone1").Value() == 0 || m.BreakerOpens.With("phone2").Value() == 0 {
		t.Fatal("dead phone paths never tripped their breakers")
	}
	if m.Backoffs.With("phone1").Value() == 0 {
		t.Fatal("failing path never backed off")
	}
}

func TestGreedyExhaustionItemError(t *testing.T) {
	// Greedy exhaustion-everywhere surfaces the typed error with
	// Everywhere set and a summed attempt count.
	p1 := &fakePath{name: "adsl", rate: 1e6, failures: map[int]int{0: 99}}
	p2 := &fakePath{name: "phone1", rate: 1e6, failures: map[int]int{0: 99}}
	_, err := Run(context.Background(), Greedy, mkItems(1, 100), []Path{p1, p2},
		Options{MaxRetries: 2})
	if err == nil {
		t.Fatal("want exhaustion error")
	}
	var ie *ItemError
	if !errors.As(err, &ie) {
		t.Fatalf("err is %T, want *ItemError", err)
	}
	if !ie.Everywhere || ie.ItemID != 0 || ie.Attempts != 4 {
		t.Fatalf("ItemError = %+v; want Everywhere, item 0, 4 attempts", ie)
	}
}

func TestBackoffDisabledByDefault(t *testing.T) {
	// Zero Options must keep the historical instant-retry behaviour:
	// a transaction with failures still finishes fast.
	p := &fakePath{name: "adsl", rate: 1e6, failures: map[int]int{0: 2}}
	start := time.Now()
	if _, err := Run(context.Background(), Greedy, mkItems(1, 100), []Path{p},
		Options{MaxRetries: 3}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("instant retry took %v", d)
	}
}

// freezePath is a ProgressPath under a stepClock whose first attempt
// tells the test it started, reports one byte on the test's word and
// then freezes, noting the instant it is cancelled at; its later
// attempts deliver at once.
type freezePath struct {
	clk      *stepClock
	started  chan struct{}
	report   chan struct{} // the test's word, answered once the byte is reported
	aborted  chan time.Duration
	attempts atomic.Int32
}

func (p *freezePath) Name() string { return "phone1" }

func (p *freezePath) Transfer(ctx context.Context, item Item) (int64, error) {
	return p.TransferProgress(ctx, item, func(int64) {})
}

func (p *freezePath) TransferProgress(ctx context.Context, item Item, progress func(int64)) (int64, error) {
	if p.attempts.Add(1) > 1 {
		progress(item.Size)
		return item.Size, nil
	}
	p.started <- struct{}{}
	<-p.report
	progress(1)
	p.report <- struct{}{}
	<-ctx.Done()
	p.aborted <- p.clk.Now().Sub(time.Time{})
	return 1, ctx.Err()
}

// A frozen attempt is aborted exactly StallTimeout after its last byte,
// as fault.Simulate's attempt walk has it: a byte at 15 ms and a 40 ms
// timeout abort at 55 ms, where a watchdog polling every 10 ms from the
// start aborted at 60.
func TestStallAbortsAtDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clk := newStepClock()
	p := &freezePath{clk: clk, started: make(chan struct{}), report: make(chan struct{}),
		aborted: make(chan time.Duration, 1)}
	m := NewMetrics(obs.NewRegistry())
	run := &scriptRun{done: make(chan struct{})}
	go func() {
		defer close(run.done)
		run.rep, run.err = Run(ctx, Greedy, mkItems(1, 100), []Path{p},
			Options{StallTimeout: 40 * time.Millisecond, MaxRetries: 2, Clock: clk, Metrics: m})
	}()
	select {
	case <-p.started:
	case <-time.After(patience):
		t.Fatal("no attempt")
	}
	// step moves the clock and gives what it wakes time to act: until
	// it next arms a timer or sleeps, or for a while of real time.
	step := func(d, wait time.Duration) {
		for len(clk.armed) > 0 {
			<-clk.armed
		}
		clk.Step(d)
		select {
		case <-clk.armed:
		case <-time.After(wait):
		}
	}
	step(15*time.Millisecond, 50*time.Millisecond)
	p.report <- struct{}{}
	<-p.report
	step(25*time.Millisecond, patience) // 40 ms: 25 ms idle, so the watchdog waits on
	for i := 0; i < 3; i++ {
		step(5*time.Millisecond, 50*time.Millisecond) // 45, 50, 55 ms
	}
	select {
	case at := <-p.aborted:
		if at != 55*time.Millisecond {
			t.Fatalf("aborted at %v; want 55ms", at)
		}
	case <-time.After(patience):
		t.Fatal("the frozen attempt was not aborted by 55ms")
	}
	select {
	case <-run.done:
	case <-time.After(patience):
		t.Fatal("the requeued item was not delivered")
	}
	if run.err != nil {
		t.Fatal(run.err)
	}
	if got := m.StallAborts.With("phone1").Value(); got != 1 {
		t.Errorf("stall aborts = %v; want 1", got)
	}
	if got := m.Requeues.With().Value(); got != 1 {
		t.Errorf("requeues = %v; want 1", got)
	}
	if got := run.rep.PerPath["phone1"].Items; got != 1 {
		t.Errorf("delivered %d of 1", got)
	}
}
