// Package simclock implements the virtual-time event queue that drives
// every simulation in the repository (cellular channel model, DSLAM trace
// replay, scheduler analyses, the chaos driver, the permit load
// generator). Virtual time is a float64 number of seconds; nothing ever
// sleeps, so simulated days run in milliseconds of wall time.
package simclock

import (
	"fmt"
	"math"
)

// Queue is a min-queue of values keyed by virtual time. Values due at the
// same time leave in push order, so a simulation that pushes in a
// deterministic order pops in one. The zero value is an empty queue; Pop
// and Peek must not be called on it.
//
// The binary heap is sifted here rather than through container/heap,
// whose any-typed Push and Pop would allocate a box for every entry.
type Queue[T any] struct {
	h   []entry[T]
	seq uint64
}

// Push adds v, due at time at. A NaN time has no place in the order and
// panics.
func (q *Queue[T]) Push(at float64, v T) {
	if math.IsNaN(at) {
		panic("simclock: push at NaN")
	}
	q.h = append(q.h, entry[T]{at: at, seq: q.seq, v: v})
	q.seq++
	for i := len(q.h) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

// Pop removes and returns the earliest value and its time.
func (q *Queue[T]) Pop() (float64, T) {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = entry[T]{} // drop v's references for the collector
	q.h = q.h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.less(c+1, c) {
			c++
		}
		if !q.less(c, i) {
			break
		}
		q.h[i], q.h[c] = q.h[c], q.h[i]
		i = c
	}
	return top.at, top.v
}

// Peek returns the earliest value and its time without removing it.
func (q *Queue[T]) Peek() (float64, T) { return q.h[0].at, q.h[0].v }

// Len reports the number of values in the queue.
func (q *Queue[T]) Len() int { return len(q.h) }

func (q *Queue[T]) less(i, j int) bool {
	a, b := &q.h[i], &q.h[j]
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

type entry[T any] struct {
	at  float64
	seq uint64
	v   T
}

// Clock is a virtual-time event scheduler. The zero value is not usable;
// construct with New. Clock is not safe for concurrent use: simulations
// are single-goroutine by design (determinism is a project requirement).
type Clock struct {
	now   float64
	queue Queue[*event]
}

// New returns a Clock positioned at time 0.
func New() *Clock {
	return &Clock{}
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Timer is a handle to a scheduled event; it allows cancellation.
type Timer struct {
	ev *event
}

// Stop cancels the timer. It reports whether the event had still been
// pending (false means it already fired or was already stopped).
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.cancelled || t.ev.fired {
		return false
	}
	t.ev.cancelled = true
	return true
}

// Schedule registers fn to run at the absolute virtual time at. Scheduling
// in the past (or at NaN) panics: a fluid simulation that produces such an
// event has a logic error that silently reordering would hide.
func (c *Clock) Schedule(at float64, fn func()) *Timer {
	if !(at >= c.now) {
		panic(fmt.Sprintf("simclock: schedule at %v before now %v", at, c.now))
	}
	ev := &event{fn: fn}
	c.queue.Push(at, ev)
	return &Timer{ev: ev}
}

// After schedules fn to run d seconds from now.
func (c *Clock) After(d float64, fn func()) *Timer {
	return c.Schedule(c.now+d, fn)
}

// Step runs the earliest pending event, advancing the clock to its time.
// It reports whether an event ran (false means the queue was empty).
func (c *Clock) Step() bool { return c.step(math.Inf(1)) }

// step runs the earliest pending event due at or before t, discarding
// cancelled events on the way. It reports whether an event ran.
func (c *Clock) step(t float64) bool {
	for c.queue.Len() > 0 {
		if at, _ := c.queue.Peek(); at > t {
			return false
		}
		at, ev := c.queue.Pop()
		if ev.cancelled {
			continue
		}
		c.now = at
		ev.fired = true
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue drains.
func (c *Clock) Run() {
	for c.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to
// exactly t (even if no event lands there).
func (c *Clock) RunUntil(t float64) {
	if !(t >= c.now) {
		panic(fmt.Sprintf("simclock: RunUntil(%v) before now %v", t, c.now))
	}
	for c.step(t) {
	}
	c.now = t
}

type event struct {
	fn        func()
	cancelled bool
	fired     bool
}
