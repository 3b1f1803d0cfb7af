// Package clock provides an injectable wall-clock abstraction. Components
// that genuinely operate in real time (the netem shapers pacing real TCP
// connections, the scheduler timing real transfers, RRC state machines)
// take a Clock instead of calling the time package directly, so tests can
// substitute a fake and the 3golvet wallclock analyzer can verify that no
// simulation code reads wall time behind the virtual clock's back.
//
// Purely virtual-time simulations use internal/simclock instead; this
// package is for code that must eventually sleep for real.
package clock

import "time"

// Clock is a source of wall-clock time and real sleeps.
type Clock interface {
	Now() time.Time
	Since(t time.Time) time.Duration
	Sleep(d time.Duration)
}

// System is the process-wide real clock. These three methods are the
// repository's only sanctioned direct wall-clock calls outside of
// daemons, tests and annotated real-time protocol code.
var System Clock = sysClock{}

type sysClock struct{}

func (sysClock) Now() time.Time { return time.Now() } //3golvet:allow wallclock

func (sysClock) Since(t time.Time) time.Duration { return time.Since(t) } //3golvet:allow wallclock

func (sysClock) Sleep(d time.Duration) { time.Sleep(d) } //3golvet:allow wallclock

func (sysClock) AfterFunc(d time.Duration, f func()) func() bool { return time.AfterFunc(d, f).Stop }

// AfterFunc calls f in a goroutine of its own once d has passed on c,
// unless the stop function it returns, which reports whether it did so,
// is called first. The system clock, like any Clock with an AfterFunc
// method of this shape, schedules the call itself; any other clock
// sleeps d out on c and then calls f whatever stop said, which suits a
// fake whose Sleep moves its time at once.
func AfterFunc(c Clock, d time.Duration, f func()) (stop func() bool) {
	if t, ok := c.(interface {
		AfterFunc(time.Duration, func()) func() bool
	}); ok {
		return t.AfterFunc(d, f)
	}
	go func() { c.Sleep(d); f() }() //3golvet:allow goroleak — ends after Sleep; the caller joins it through f, which always runs
	return func() bool { return false }
}

// Or returns c, or System when c is nil — the standard way for a struct
// with an optional Clock field to resolve its time source.
func Or(c Clock) Clock {
	if c == nil {
		return System
	}
	return c
}
