package scheduler

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// stepClock is a clock.Clock that moves only when the test steps it:
// Sleep blocks until then, and the calls AfterFunc schedules are made
// then. armed hears of every Sleep and AfterFunc.
type stepClock struct {
	mu     sync.Mutex
	moved  *sync.Cond
	now    time.Time
	timers map[int]stepTimer
	next   int
	armed  chan struct{}
}

type stepTimer struct {
	at time.Time
	f  func()
}

func newStepClock() *stepClock {
	c := &stepClock{timers: map[int]stepTimer{}, armed: make(chan struct{}, 64)}
	c.moved = sync.NewCond(&c.mu)
	return c
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *stepClock) arm() {
	select {
	case c.armed <- struct{}{}:
	default:
	}
}

func (c *stepClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arm()
	for until := c.now.Add(d); c.now.Before(until); {
		c.moved.Wait()
	}
}

func (c *stepClock) AfterFunc(d time.Duration, f func()) func() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arm()
	id := c.next
	c.next++
	c.timers[id] = stepTimer{c.now.Add(d), f}
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.timers[id]
		delete(c.timers, id)
		return ok
	}
}

// Step moves the clock by d, waking the sleepers and making the calls
// that fall due.
func (c *stepClock) Step(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due []func()
	for id, tm := range c.timers {
		if !tm.at.After(c.now) {
			due = append(due, tm.f)
			delete(c.timers, id)
		}
	}
	c.moved.Broadcast()
	c.mu.Unlock()
	for _, f := range due {
		go f()
	}
}

// scriptCall is one attempt of a scriptPath, held until the test answers
// it: nil delivers the item's 100 kB, an error fails the attempt.
type scriptCall struct {
	path  string
	item  int
	reply chan error
}

// scriptPath is a path whose every attempt the test decides, in the
// order it chooses; its attempts take no time on the clock unless the
// test steps it.
type scriptPath struct {
	name  string
	calls chan<- scriptCall
}

func (p *scriptPath) Name() string { return p.name }

func (p *scriptPath) Transfer(ctx context.Context, item Item) (int64, error) {
	c := scriptCall{p.name, item.ID, make(chan error)}
	select {
	case p.calls <- c:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	select {
	case err := <-c.reply:
		if err != nil {
			return 0, err
		}
		return 100_000, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// rangedScriptPath is a scriptPath that carries byte ranges but whose
// attempts cannot be cut, so that its endgame duplicates rather than
// splits.
type rangedScriptPath struct{ scriptPath }

func (p *rangedScriptPath) Ranges() bool { return true }
func (p *rangedScriptPath) Cuts() bool   { return false }

func (p *rangedScriptPath) TransferRange(ctx context.Context, item Item, _ *Range, _ func(int64)) (int64, error) {
	return p.Transfer(ctx, item)
}

// scriptRun is a transaction under way in a goroutine of its own.
type scriptRun struct {
	done chan struct{}
	rep  *Report
	err  error
}

func startScript(ctx context.Context, paths []Path, items []Item, opts Options) *scriptRun {
	r := &scriptRun{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.rep, r.err = Run(ctx, Greedy, items, paths, opts)
	}()
	return r
}

// patience is how long, in real time, a test waits for the driver to
// act on something that needs no clock.
const patience = 5 * time.Second

func awaitCall(t *testing.T, calls <-chan scriptCall, what string) scriptCall {
	t.Helper()
	select {
	case c := <-calls:
		return c
	case <-time.After(patience):
		t.Fatalf("no attempt: %s", what)
		return scriptCall{}
	}
}

// lastDone is when a report's last item was delivered.
func lastDone(rep *Report) time.Duration {
	var last time.Duration
	for _, d := range rep.ItemDone {
		last = max(last, d)
	}
	return last
}

// A path sitting out its breaker's hold is woken by the transaction's
// end, so the transaction returns at its last delivery: under a clock
// that only the test moves, with the clock where the last item left it.
// A hold slept out in slices kept the transaction open to the end of the
// slice, and here, with the clock stopped, for good.
func TestWaitEndsWithTheTransaction(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clk := newStepClock()
	calls := make(chan scriptCall)
	run := startScript(ctx, []Path{&scriptPath{"a", calls}, &scriptPath{"b", calls}}, mkItems(3, 100_000),
		Options{MaxRetries: 3, Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Second}, Clock: clk})
	first, second := awaitCall(t, calls, "a's first"), awaitCall(t, calls, "b's first")
	if first.path == "b" {
		first, second = second, first
	}
	second.reply <- errors.New("b fails") // opens b's breaker for a second
	select {
	case <-clk.armed:
	case <-time.After(patience):
		t.Fatal("b did not sit out its hold")
	}
	first.reply <- nil
	steps := 0
	for done := false; !done; {
		select {
		case c := <-calls:
			if c.path != "a" {
				t.Fatalf("%s attempted item %d during its hold", c.path, c.item)
			}
			c.reply <- nil
		case <-run.done:
			done = true
		case <-time.After(patience):
			clk.Step(time.Millisecond) // whatever the transaction waits on, it is not a delivery
			steps++
		}
	}
	if run.err != nil {
		t.Fatal(run.err)
	}
	if run.rep.Elapsed != lastDone(run.rep) || steps > 0 {
		t.Errorf("transaction ended at %v, %v after its last delivery, having waited on %d steps of the clock",
			run.rep.Elapsed, run.rep.Elapsed-lastDone(run.rep), steps)
	}
}

// An endgame replica that is not expected to win is not launched: the
// idle path waits instead, and an item that comes back on the pool
// reaches it at once, with the clock unmoved, as fault.Simulate
// re-asks a waiting path at every outcome.
func TestWaitingPathTakesARequeuedItemAtOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clk := newStepClock()
	calls := make(chan scriptCall)
	paths := []Path{&rangedScriptPath{scriptPath{"a", calls}}, &rangedScriptPath{scriptPath{"b", calls}}}
	// Sizes unknown, as a VoD proxy's are: no piece is sized at
	// assignment, and the gate takes the last item won whole. One try a
	// path, so that the carrier cannot take its item back.
	run := startScript(ctx, paths, mkItems(3, 0), Options{MaxRetries: 1, Clock: clk})
	first, second := awaitCall(t, calls, "the first item"), awaitCall(t, calls, "the second item")
	clk.Step(10 * time.Millisecond) // both paths at 100 kB in 10 ms
	first.reply <- nil
	carrier := awaitCall(t, calls, "the last item")
	if carrier.path != first.path || carrier.item != 2 {
		t.Fatalf("%s took item %d; want %s on item 2", carrier.path, carrier.item, first.path)
	}
	second.reply <- nil
	// A replica would take 10 ms and a request's 10 ms; the carrier is
	// expected to be done in 10.
	select {
	case <-clk.armed:
	case c := <-calls:
		t.Fatalf("%s duplicated item %d, which its carrier is expected to finish first", c.path, c.item)
	case <-time.After(patience):
		t.Fatal("the idle path neither waited nor duplicated")
	}
	carrier.reply <- errors.New("carrier lost")
	retry := awaitCall(t, calls, "the requeued item on the waiting path")
	if retry.path != second.path || retry.item != 2 {
		t.Fatalf("%s took item %d; want %s on item 2", retry.path, retry.item, second.path)
	}
	retry.reply <- nil
	select {
	case <-run.done:
	case <-time.After(patience):
		t.Fatal("the transaction did not end at its last delivery")
	}
	if run.err != nil {
		t.Fatal(run.err)
	}
	if run.rep.Duplicates != 0 || run.rep.Elapsed != 10*time.Millisecond || lastDone(run.rep) != 10*time.Millisecond {
		t.Errorf("%d duplicates, last delivery at %v, end at %v: want none, and both at 10ms",
			run.rep.Duplicates, lastDone(run.rep), run.rep.Elapsed)
	}
}
