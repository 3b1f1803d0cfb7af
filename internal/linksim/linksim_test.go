package linksim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"threegol/internal/simclock"
)

func newSim() *Simulator { return New(simclock.New()) }

func TestSingleFlowSingleLink(t *testing.T) {
	s := newSim()
	l := s.NewLink("dsl", 2*Mbps)
	f := s.StartFlow(FlowSpec{Name: "a", Bits: 2 * MB, Path: []*Link{l}})
	if got := f.Rate(); got != 2*Mbps {
		t.Errorf("rate = %v, want 2Mbps", got)
	}
	s.Run()
	if !f.Done() {
		t.Fatal("flow not done after Run")
	}
	if got, want := f.Duration(), 8.0; !close(got, want) {
		t.Errorf("duration = %v, want %v (16Mbit over 2Mbps)", got, want)
	}
	if got := f.Throughput(); !close(got, 2*Mbps) {
		t.Errorf("throughput = %v, want 2Mbps", got)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	s := newSim()
	l := s.NewLink("cell", 4*Mbps)
	f1 := s.StartFlow(FlowSpec{Name: "a", Bits: 1 * MB, Path: []*Link{l}})
	f2 := s.StartFlow(FlowSpec{Name: "b", Bits: 1 * MB, Path: []*Link{l}})
	if !close(f1.Rate(), 2*Mbps) || !close(f2.Rate(), 2*Mbps) {
		t.Errorf("rates = %v, %v, want 2Mbps each", f1.Rate(), f2.Rate())
	}
	s.Run()
	// Equal sizes, equal shares: both finish at 4s.
	if !close(f1.End(), 4) || !close(f2.End(), 4) {
		t.Errorf("ends = %v, %v, want 4", f1.End(), f2.End())
	}
}

func TestShortFlowReleasesCapacity(t *testing.T) {
	s := newSim()
	l := s.NewLink("cell", 4*Mbps)
	short := s.StartFlow(FlowSpec{Name: "short", Bits: 1 * MB, Path: []*Link{l}})
	long := s.StartFlow(FlowSpec{Name: "long", Bits: 3 * MB, Path: []*Link{l}})
	s.Run()
	// Short: 8Mbit at 2Mbps → done at 4s. Long: 8Mbit by t=4 (16 left),
	// then full 4Mbps → 4 more seconds → 8s.
	if !close(short.End(), 4) {
		t.Errorf("short end = %v, want 4", short.End())
	}
	if !close(long.End(), 8) {
		t.Errorf("long end = %v, want 8", long.End())
	}
}

func TestRateCapBinds(t *testing.T) {
	s := newSim()
	l := s.NewLink("cell", 10*Mbps)
	capped := s.StartFlow(FlowSpec{Name: "capped", Bits: 1 * MB, RateCap: 1 * Mbps, Path: []*Link{l}})
	free := s.StartFlow(FlowSpec{Name: "free", Bits: 1 * MB, Path: []*Link{l}})
	if !close(capped.Rate(), 1*Mbps) {
		t.Errorf("capped rate = %v, want 1Mbps", capped.Rate())
	}
	// Max-min: the capped flow's unused share goes to the other flow.
	if !close(free.Rate(), 9*Mbps) {
		t.Errorf("free rate = %v, want 9Mbps", free.Rate())
	}
	s.Run()
}

func TestWeightedSharing(t *testing.T) {
	s := newSim()
	l := s.NewLink("cell", 6*Mbps)
	heavy := s.StartFlow(FlowSpec{Name: "w2", Bits: 1 * MB, Weight: 2, Path: []*Link{l}})
	light := s.StartFlow(FlowSpec{Name: "w1", Bits: 1 * MB, Weight: 1, Path: []*Link{l}})
	if !close(heavy.Rate(), 4*Mbps) || !close(light.Rate(), 2*Mbps) {
		t.Errorf("rates = %v, %v, want 4 and 2 Mbps", heavy.Rate(), light.Rate())
	}
	s.Run()
}

func TestMultiLinkPathBottleneck(t *testing.T) {
	s := newSim()
	radio := s.NewLink("radio", 10*Mbps)
	backhaul := s.NewLink("backhaul", 3*Mbps)
	f := s.StartFlow(FlowSpec{Name: "f", Bits: 3 * MB, Path: []*Link{radio, backhaul}})
	if !close(f.Rate(), 3*Mbps) {
		t.Errorf("rate = %v, want 3Mbps (backhaul bound)", f.Rate())
	}
	s.Run()
	if !close(f.Duration(), 8) {
		t.Errorf("duration = %v, want 8", f.Duration())
	}
}

func TestCrossTrafficOnSharedBackhaul(t *testing.T) {
	// Two radio legs share one backhaul: classic max-min allocation.
	s := newSim()
	r1 := s.NewLink("radio1", 2*Mbps)
	r2 := s.NewLink("radio2", 10*Mbps)
	bh := s.NewLink("backhaul", 6*Mbps)
	f1 := s.StartFlow(FlowSpec{Name: "f1", Bits: 1 * MB, Path: []*Link{r1, bh}})
	f2 := s.StartFlow(FlowSpec{Name: "f2", Bits: 1 * MB, Path: []*Link{r2, bh}})
	// f1 is bound by its 2Mbps radio; f2 takes the remaining 4Mbps.
	if !close(f1.Rate(), 2*Mbps) {
		t.Errorf("f1 rate = %v, want 2Mbps", f1.Rate())
	}
	if !close(f2.Rate(), 4*Mbps) {
		t.Errorf("f2 rate = %v, want 4Mbps", f2.Rate())
	}
	s.Run()
}

func TestSetCapacityMidFlow(t *testing.T) {
	s := newSim()
	l := s.NewLink("cell", 2*Mbps)
	f := s.StartFlow(FlowSpec{Name: "f", Bits: 2 * MB, Path: []*Link{l}})
	// After 4s, half transferred (8 Mbit). Halve capacity: the remaining
	// 8 Mbit at 1 Mbps take 8 more seconds → total 12 s.
	s.Clock().After(4, func() { l.SetCapacity(1 * Mbps) })
	s.Run()
	if !close(f.End(), 12) {
		t.Errorf("end = %v, want 12", f.End())
	}
	if !f.Done() {
		t.Error("flow should be done")
	}
}

func TestCapacityIncreaseSpeedsCompletion(t *testing.T) {
	s := newSim()
	l := s.NewLink("cell", 1*Mbps)
	f := s.StartFlow(FlowSpec{Name: "f", Bits: 2 * MB, Path: []*Link{l}})
	s.Clock().After(8, func() { l.SetCapacity(8 * Mbps) }) // halfway
	s.Run()
	if !close(f.End(), 9) {
		t.Errorf("end = %v, want 9 (8s at 1Mbps + 1s at 8Mbps)", f.End())
	}
}

func TestAbort(t *testing.T) {
	s := newSim()
	l := s.NewLink("cell", 2*Mbps)
	victim := s.StartFlow(FlowSpec{Name: "victim", Bits: 10 * MB, Path: []*Link{l}})
	other := s.StartFlow(FlowSpec{Name: "other", Bits: 1 * MB, Path: []*Link{l}})
	doneCalled := false
	victim.onDone = func(*Flow) { doneCalled = true }
	s.Clock().After(1, func() { victim.Abort() })
	s.Run()
	if doneCalled {
		t.Error("aborted flow invoked onDone")
	}
	if !victim.Done() {
		t.Error("aborted flow should report Done")
	}
	// other: 1s at 1Mbps = 1Mbit, then 7Mbit at 2Mbps = 3.5s → 4.5s total.
	if !close(other.End(), 4.5) {
		t.Errorf("other end = %v, want 4.5", other.End())
	}
	if victim.remaining != 0 {
		t.Errorf("aborted remaining = %v, want 0", victim.remaining)
	}
}

func TestOnDoneCallbackTiming(t *testing.T) {
	s := newSim()
	l := s.NewLink("cell", 1*Mbps)
	var at float64 = -1
	s.StartFlow(FlowSpec{Name: "f", Bits: 1 * MB, Path: []*Link{l}, OnDone: func(f *Flow) {
		at = s.Clock().Now()
	}})
	s.Run()
	if !close(at, 8) {
		t.Errorf("onDone at %v, want 8", at)
	}
}

func TestChainedFlowsFromCallback(t *testing.T) {
	// Starting a new flow from an onDone callback models the greedy
	// scheduler assigning the next item to a freed path.
	s := newSim()
	l := s.NewLink("cell", 1*Mbps)
	var second *Flow
	s.StartFlow(FlowSpec{Name: "first", Bits: 1 * MB, Path: []*Link{l}, OnDone: func(*Flow) {
		second = s.StartFlow(FlowSpec{Name: "second", Bits: 1 * MB, Path: []*Link{l}})
	}})
	s.Run()
	if second == nil || !second.Done() {
		t.Fatal("chained flow did not run")
	}
	if !close(second.End(), 16) {
		t.Errorf("second end = %v, want 16", second.End())
	}
}

func TestRemainingMidFlight(t *testing.T) {
	s := newSim()
	l := s.NewLink("cell", 2*Mbps)
	f := s.StartFlow(FlowSpec{Name: "f", Bits: 2 * MB, Path: []*Link{l}})
	s.RunUntil(4)
	s.settle(f)
	if got := f.remaining; !close(got, 1*MB) {
		t.Errorf("remaining at t=4 = %v, want 1MB", got)
	}
	s.Run()
}

func TestZeroCapacityLinkStallsFlows(t *testing.T) {
	s := newSim()
	l := s.NewLink("dead", 0)
	f := s.StartFlow(FlowSpec{Name: "f", Bits: 1 * MB, Path: []*Link{l}})
	if f.Rate() != 0 {
		t.Errorf("rate on zero-capacity link = %v, want 0", f.Rate())
	}
	s.RunUntil(100)
	if f.Done() {
		t.Error("flow on zero-capacity link should never complete")
	}
	// Revive the link; flow should now finish.
	l.SetCapacity(1 * Mbps)
	s.Run()
	if !f.Done() {
		t.Error("flow did not complete after capacity restored")
	}
	if !close(f.End(), 108) {
		t.Errorf("end = %v, want 108", f.End())
	}
}

func TestUtilizationAndLoad(t *testing.T) {
	s := newSim()
	l := s.NewLink("cell", 4*Mbps)
	s.StartFlow(FlowSpec{Name: "a", Bits: 1 * MB, RateCap: 1 * Mbps, Path: []*Link{l}})
	if l.Load() != 1 {
		t.Errorf("Load = %d, want 1", l.Load())
	}
	if got := l.Utilization(); !close(got, 0.25) {
		t.Errorf("Utilization = %v, want 0.25", got)
	}
	s.Run()
	if l.Load() != 0 {
		t.Errorf("Load after drain = %d, want 0", l.Load())
	}
}

func TestStartFlowPanicsOnEmptyPath(t *testing.T) {
	s := newSim()
	defer func() {
		if recover() == nil {
			t.Error("empty path did not panic")
		}
	}()
	s.StartFlow(FlowSpec{Name: "bad", Bits: 1})
}

func TestStartFlowPanicsOnZeroSize(t *testing.T) {
	s := newSim()
	l := s.NewLink("l", 1)
	defer func() {
		if recover() == nil {
			t.Error("zero size did not panic")
		}
	}()
	s.StartFlow(FlowSpec{Name: "bad", Bits: 0, Path: []*Link{l}})
}

// Property: for N equal flows on one link, capacity is split equally and
// conservation holds (sum of rates ≤ capacity, within epsilon).
func TestFairShareProperty(t *testing.T) {
	f := func(nRaw uint8, capRaw uint16) bool {
		n := int(nRaw%20) + 1
		capacity := float64(capRaw%10000)*Kbps + 1*Kbps
		s := newSim()
		l := s.NewLink("l", capacity)
		flows := make([]*Flow, n)
		for i := range flows {
			flows[i] = s.StartFlow(FlowSpec{Name: "f", Bits: 1 * MB, Path: []*Link{l}})
		}
		var sum float64
		for _, fl := range flows {
			if !close(fl.Rate(), capacity/float64(n)) {
				return false
			}
			sum += fl.Rate()
		}
		return sum <= capacity*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: total bytes delivered equal the flow size regardless of how
// capacity jitters during the transfer (work conservation).
func TestWorkConservationUnderCapacityChanges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newSim()
		l := s.NewLink("l", 1*Mbps+rng.Float64()*9*Mbps)
		size := 1*MB + rng.Float64()*9*MB
		fl := s.StartFlow(FlowSpec{Name: "f", Bits: size, Path: []*Link{l}})
		// Jitter capacity a few times.
		for i := 1; i <= 5; i++ {
			at := float64(i)
			c := 0.5*Mbps + rng.Float64()*9*Mbps
			s.Clock().Schedule(at, func() { l.SetCapacity(c) })
		}
		s.Run()
		if !fl.Done() {
			return false
		}
		// Integrate rate over the lifetime via throughput identity:
		// duration × average rate = size. We can't observe the integral
		// directly, but completion with remaining==0 plus a sane
		// duration bound implies conservation.
		minCap, maxCap := 0.5*Mbps, 10.5*Mbps
		d := fl.Duration()
		return d >= size/maxCap-1e-6 && d <= size/minCap+1e-6 && fl.remaining == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func close(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Max(math.Abs(a), math.Abs(b)))
}
