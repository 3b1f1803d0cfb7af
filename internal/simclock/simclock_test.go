package simclock

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	c := New()
	var got []int
	c.Schedule(3, func() { got = append(got, 3) })
	c.Schedule(1, func() { got = append(got, 1) })
	c.Schedule(2, func() { got = append(got, 2) })
	c.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if c.Now() != 3 {
		t.Errorf("Now = %v, want 3", c.Now())
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	c := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(5, func() { got = append(got, i) })
	}
	c.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestAfter(t *testing.T) {
	c := New()
	var at float64 = -1
	c.Schedule(2, func() {
		c.After(3, func() { at = c.Now() })
	})
	c.Run()
	if at != 5 {
		t.Errorf("After fired at %v, want 5", at)
	}
}

func TestTimerStop(t *testing.T) {
	c := New()
	fired := false
	tm := c.Schedule(1, func() { fired = true })
	if !tm.Stop() {
		t.Error("first Stop should report true")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	c.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if c.Now() != 0 {
		t.Errorf("clock advanced to %v after all-cancelled queue", c.Now())
	}
}

func TestStopAfterFire(t *testing.T) {
	c := New()
	tm := c.Schedule(1, func() {})
	c.Run()
	if tm.Stop() {
		t.Error("Stop after fire should report false")
	}
}

func TestRunUntil(t *testing.T) {
	c := New()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		c.Schedule(at, func() { fired = append(fired, at) })
	}
	c.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2 only", fired)
	}
	if c.Now() != 2.5 {
		t.Errorf("Now = %v, want 2.5", c.Now())
	}
	c.RunUntil(10)
	if len(fired) != 4 {
		t.Errorf("fired %v, want all four", fired)
	}
	if c.Now() != 10 {
		t.Errorf("Now = %v, want 10", c.Now())
	}
}

// panics reports whether fn panics.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

func TestSchedulePastPanics(t *testing.T) {
	for _, at := range []float64{1, math.NaN()} {
		c := New()
		c.Schedule(5, func() {})
		c.Run()
		if !panics(func() { c.Schedule(at, func() {}) }) {
			t.Errorf("Schedule(%v) at now 5 did not panic", at)
		}
		if c.Now() != 5 {
			t.Errorf("Schedule(%v): Now = %v, want 5", at, c.Now())
		}
	}
}

func TestRunUntilPastPanics(t *testing.T) {
	for _, until := range []float64{1, math.NaN()} {
		c := New()
		c.Schedule(5, func() {})
		c.Run()
		if !panics(func() { c.RunUntil(until) }) {
			t.Errorf("RunUntil(%v) at now 5 did not panic", until)
		}
		if c.Now() != 5 {
			t.Errorf("RunUntil(%v): Now = %v, want 5", until, c.Now())
		}
	}
}

func TestQueuePushNaNPanics(t *testing.T) {
	var q Queue[int]
	if !panics(func() { q.Push(math.NaN(), 1) }) {
		t.Error("Push(NaN) did not panic")
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after a rejected push, want 0", q.Len())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	c := New()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			c.After(1, chain)
		}
	}
	c.Schedule(0, chain)
	c.Run()
	if count != 5 {
		t.Errorf("chain ran %d times, want 5", count)
	}
	if c.Now() != 4 {
		t.Errorf("Now = %v, want 4", c.Now())
	}
}

// Property: with random schedule times, events always fire in
// non-decreasing time order and the clock ends at the max time; and a
// Queue under random pushes and pops, with times from a small set so that
// ties are common, pops exactly what a stable sort on (time, push order)
// puts first.
func TestRandomScheduleOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		var times []float64
		var fired []float64
		for i := 0; i < int(n%50)+1; i++ {
			at := rng.Float64() * 100
			times = append(times, at)
			at2 := at
			c.Schedule(at2, func() { fired = append(fired, at2) })
		}
		c.Run()
		if len(fired) != len(times) {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		sort.Float64s(times)
		return c.Now() == times[len(times)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}

	type item struct {
		at float64
		v  int // minus the push order
	}
	g := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[int]
		var model []item
		now, pushed := 0.0, 0
		for op := 0; op < int(n)+1; op++ {
			if len(model) > 0 && rng.Intn(3) == 0 {
				at, v := q.Pop()
				want := model[0]
				model = model[1:]
				if at != want.at || v != want.v || at < now {
					return false
				}
				now = at
				continue
			}
			// Values count down so a tie broken by value pops the
			// wrong one; times fall on now+{0,1,2,3}.
			at := now + float64(rng.Intn(4))
			q.Push(at, -pushed)
			model = append(model, item{at, -pushed})
			pushed++
			sort.SliceStable(model, func(i, j int) bool { return model[i].at < model[j].at })
			if q.Len() != len(model) {
				return false
			}
			if at, v := q.Peek(); at != model[0].at || v != model[0].v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}
