package linksim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"threegol/internal/simclock"
)

// checkConservation asserts every link's allocated rate stays within its
// capacity and every flow within its cap.
func checkConservation(t *testing.T, s *Simulator) {
	t.Helper()
	for _, l := range s.links {
		var sum float64
		for f := range l.flows {
			sum += f.rate
		}
		if sum > l.capacity*(1+1e-9)+1e-6 {
			t.Fatalf("link %s over-allocated: %v > %v", l.name, sum, l.capacity)
		}
	}
	for f := range s.flows {
		if f.rateCap > 0 && f.rate > f.rateCap*(1+1e-9) {
			t.Fatalf("flow %s above its cap: %v > %v", f.name, f.rate, f.rateCap)
		}
		if f.rate < 0 {
			t.Fatalf("flow %s negative rate %v", f.name, f.rate)
		}
	}
}

// TestRandomOperationsPreserveInvariants drives the simulator through a
// random schedule of flow starts, aborts, capacity changes and time
// advances, checking conservation after every step and completion
// accounting at the end.
func TestRandomOperationsPreserveInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(simclock.New())
		links := []*Link{
			s.NewLink("a", 1*Mbps+rng.Float64()*9*Mbps),
			s.NewLink("b", 1*Mbps+rng.Float64()*9*Mbps),
			s.NewLink("c", 1*Mbps+rng.Float64()*9*Mbps),
		}
		var live []*Flow
		completed := 0

		for op := 0; op < 60; op++ {
			switch rng.Intn(4) {
			case 0: // start a flow over a random non-empty path
				path := []*Link{links[rng.Intn(len(links))]}
				if rng.Intn(2) == 0 {
					path = append(path, links[rng.Intn(len(links))])
				}
				var cap float64
				if rng.Intn(2) == 0 {
					cap = 0.2*Mbps + rng.Float64()*3*Mbps
				}
				fl := s.StartFlow(FlowSpec{
					Name: "f", Bits: 0.1*MB + rng.Float64()*2*MB,
					RateCap: cap, Path: path,
					OnDone: func(*Flow) { completed++ },
				})
				live = append(live, fl)
			case 1: // abort a random live flow
				if len(live) > 0 {
					i := rng.Intn(len(live))
					if !live[i].Done() {
						live[i].Abort()
					}
					live = append(live[:i], live[i+1:]...)
				}
			case 2: // change a capacity
				links[rng.Intn(len(links))].SetCapacity(0.5*Mbps + rng.Float64()*9*Mbps)
			case 3: // advance virtual time a little
				s.RunUntil(s.Clock().Now() + rng.Float64()*3)
			}
			checkConservation(t, s)
		}
		s.Run()
		checkConservation(t, s)
		// Everything either completed (callback fired) or was aborted;
		// nothing remains active.
		return len(s.flows) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCompletionTimesAreCausal: a flow can never finish before
// size/maxPossibleRate nor (with stable capacity) after size/minShare.
func TestCompletionTimesAreCausal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(simclock.New())
		capacity := 1*Mbps + rng.Float64()*9*Mbps
		l := s.NewLink("l", capacity)
		n := 1 + rng.Intn(6)
		flows := make([]*Flow, n)
		size := 0.5*MB + rng.Float64()*2*MB
		for i := range flows {
			flows[i] = s.StartFlow(FlowSpec{Name: "f", Bits: size, Path: []*Link{l}})
		}
		s.Run()
		for _, fl := range flows {
			d := fl.Duration()
			if d < size/capacity-1e-6 {
				return false // faster than the whole link allows
			}
			if d > size*float64(n)/capacity+1e-6 {
				return false // slower than the equal-share worst case
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
