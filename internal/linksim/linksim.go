// Package linksim is an event-driven fluid-flow network simulator. Flows
// traverse paths of capacity-constrained links and share each link
// max-min fairly (optionally weighted, optionally rate-capped per flow —
// the per-device radio cap of an HSPA channel is such a cap). Capacities
// may change over virtual time, which is how the cellular model injects
// diurnal background load.
//
// The simulator is exact for the fluid model: between events every flow
// progresses linearly at its allocated rate; events are flow arrivals,
// flow completions and capacity changes, at which point all rates are
// recomputed by progressive (water-filling) max-min allocation.
//
// Units: capacities and rates are bits per second, sizes are bits, time is
// seconds (all float64). The Mbps and MB constants convert.
package linksim

import (
	"fmt"
	"math"
	"sort"

	"threegol/internal/simclock"
)

// Unit conversion constants.
const (
	Kbps = 1e3 // bits per second
	Mbps = 1e6 // bits per second
	KB   = 8e3 // bits
	MB   = 8e6 // bits
	Inf  = math.MaxFloat64
)

// Simulator owns a set of links and the flows currently traversing them.
type Simulator struct {
	clock *simclock.Clock
	links []*Link
	flows map[*Flow]struct{}

	nextCompletion *simclock.Timer
}

// New creates a Simulator driven by the given clock.
func New(clock *simclock.Clock) *Simulator {
	return &Simulator{clock: clock, flows: make(map[*Flow]struct{})}
}

// Clock returns the simulator's virtual clock.
func (s *Simulator) Clock() *simclock.Clock { return s.clock }

// Link is a shared bottleneck with a capacity in bits/s.
type Link struct {
	name     string
	capacity float64
	sim      *Simulator
	flows    map[*Flow]struct{}
}

// NewLink adds a link with the given capacity (bits/s). Capacity must be
// non-negative.
func (s *Simulator) NewLink(name string, capacity float64) *Link {
	if capacity < 0 {
		panic(fmt.Sprintf("linksim: negative capacity %v for link %q", capacity, name))
	}
	l := &Link{name: name, capacity: capacity, sim: s, flows: make(map[*Flow]struct{})}
	s.links = append(s.links, l)
	return l
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link's current capacity in bits/s.
func (l *Link) Capacity() float64 { return l.capacity }

// SetCapacity changes the link capacity now; all flow rates are
// recomputed.
func (l *Link) SetCapacity(c float64) {
	if c < 0 {
		panic(fmt.Sprintf("linksim: negative capacity %v for link %q", c, l.name))
	}
	if c == l.capacity {
		return
	}
	l.capacity = c
	l.sim.reallocate()
}

// Load returns the number of flows currently crossing the link.
func (l *Link) Load() int { return len(l.flows) }

// Utilization returns the fraction of capacity currently allocated.
func (l *Link) Utilization() float64 {
	if l.capacity <= 0 {
		if len(l.flows) > 0 {
			return 1
		}
		return 0
	}
	var used float64
	for f := range l.flows {
		used += f.rate
	}
	return used / l.capacity
}

// Flow is an active fluid transfer.
type Flow struct {
	name      string
	path      []*Link
	remaining float64 // bits left; Inf for unbounded flows
	size      float64 // original size in bits (Inf for unbounded)
	rateCap   float64 // per-flow rate ceiling (e.g. radio-condition cap)
	weight    float64 // share weight within each link (default 1)

	rate       float64
	lastUpdate float64
	start      float64
	end        float64 // NaN until done
	done       bool
	onDone     func(*Flow)

	sim *Simulator
}

// FlowSpec configures a flow started with StartFlow.
type FlowSpec struct {
	Name    string
	Bits    float64 // transfer size; use Inf (or ≤0 treated as error) for unbounded via Unbounded
	RateCap float64 // 0 means uncapped
	Weight  float64 // 0 means 1
	Path    []*Link
	OnDone  func(*Flow) // invoked at completion time, clock positioned at completion
}

// StartFlow begins a fluid transfer now. It panics on an empty path or a
// non-positive size — both are experiment configuration errors. A link
// appearing more than once in the path is collapsed to a single traversal:
// link membership is a set, and the water-filling allocator charges each
// flow against each distinct link exactly once.
func (s *Simulator) StartFlow(spec FlowSpec) *Flow {
	if len(spec.Path) == 0 {
		panic("linksim: StartFlow with empty path")
	}
	if spec.Bits <= 0 {
		panic(fmt.Sprintf("linksim: StartFlow %q with size %v", spec.Name, spec.Bits))
	}
	spec.Path = dedupLinks(spec.Path)
	w := spec.Weight
	if w <= 0 {
		w = 1
	}
	f := &Flow{
		name:       spec.Name,
		path:       spec.Path,
		remaining:  spec.Bits,
		size:       spec.Bits,
		rateCap:    spec.RateCap,
		weight:     w,
		start:      s.clock.Now(),
		lastUpdate: s.clock.Now(),
		end:        math.NaN(),
		onDone:     spec.OnDone,
		sim:        s,
	}
	s.flows[f] = struct{}{}
	for _, l := range spec.Path {
		l.flows[f] = struct{}{}
	}
	s.reallocate()
	return f
}

// Abort removes the flow immediately without invoking its completion
// callback (mirrors the scheduler cancelling a duplicated item).
func (f *Flow) Abort() {
	if f.done {
		return
	}
	f.sim.settle(f)
	f.done = true
	f.end = f.sim.clock.Now()
	f.remaining = 0
	f.sim.detach(f)
	f.sim.reallocate()
}

// Name returns the flow's diagnostic name.
func (f *Flow) Name() string { return f.name }

// Rate returns the currently allocated rate in bits/s.
func (f *Flow) Rate() float64 { return f.rate }

// Done reports whether the flow has completed or been aborted.
func (f *Flow) Done() bool { return f.done }

// Start returns the flow's start time.
func (f *Flow) Start() float64 { return f.start }

// End returns the completion (or abort) time, NaN while in flight.
func (f *Flow) End() float64 { return f.end }

// Duration returns End−Start, NaN while in flight.
func (f *Flow) Duration() float64 { return f.end - f.start }

// Throughput returns size/duration in bits/s for a completed flow, NaN
// while in flight.
func (f *Flow) Throughput() float64 {
	d := f.Duration()
	if d <= 0 {
		return math.NaN()
	}
	return f.size / d
}

// settle charges progress made since the flow's last rate change.
func (s *Simulator) settle(f *Flow) {
	now := s.clock.Now()
	if elapsed := now - f.lastUpdate; elapsed > 0 {
		f.remaining -= f.rate * elapsed
		if f.remaining < completionTolerance {
			f.remaining = 0
		}
	}
	f.lastUpdate = now
}

func (s *Simulator) detach(f *Flow) {
	delete(s.flows, f)
	for _, l := range f.path {
		delete(l.flows, f)
	}
}

// reallocate recomputes all flow rates via weighted max-min water-filling
// and reschedules the next completion event.
func (s *Simulator) reallocate() {
	// Settle progress for every active flow at the current instant.
	for f := range s.flows {
		s.settle(f)
	}

	// Water-filling. Unfrozen flows grow together (proportionally to
	// weight); at each round the tightest constraint — a link's residual
	// fair share or a flow's rate cap — freezes some flows.
	type linkState struct {
		rem    float64
		weight float64 // total weight of unfrozen flows on this link
	}
	ls := make(map[*Link]*linkState, len(s.links))
	unfrozen := make(map[*Flow]struct{}, len(s.flows))
	for f := range s.flows {
		f.rate = 0
		unfrozen[f] = struct{}{}
	}
	for _, l := range s.links {
		st := &linkState{rem: l.capacity}
		for f := range l.flows {
			st.weight += f.weight
		}
		ls[l] = st
	}

	for len(unfrozen) > 0 {
		// The common growth level λ: each unfrozen flow gets λ·weight.
		// Find the smallest λ at which a constraint binds.
		lambda := math.Inf(1)
		for f := range unfrozen {
			// Link constraints along this flow's path.
			for _, l := range f.path {
				st := ls[l]
				if st.weight <= 0 {
					continue
				}
				if v := st.rem / st.weight; v < lambda {
					lambda = v
				}
			}
			// Rate-cap constraint.
			if f.rateCap > 0 {
				if v := f.rateCap / f.weight; v < lambda {
					lambda = v
				}
			}
		}
		if math.IsInf(lambda, 1) {
			// No binding constraint (flows on infinite links, no caps):
			// give them the Inf sentinel? Cannot happen: links always have
			// finite capacity; caps of 0 on infinite-capacity links would
			// be a configuration error. Freeze at zero to stay total.
			for f := range unfrozen {
				delete(unfrozen, f)
			}
			break
		}

		// Freeze every flow bound at λ: those whose cap binds, and those
		// crossing a link whose residual is exhausted at λ.
		frozen := make([]*Flow, 0)
		for f := range unfrozen {
			r := lambda * f.weight
			capBinds := f.rateCap > 0 && r >= f.rateCap-1e-12
			linkBinds := false
			for _, l := range f.path {
				st := ls[l]
				if st.rem-lambda*st.weight <= 1e-9*(1+st.rem) {
					linkBinds = true
					break
				}
			}
			if capBinds || linkBinds {
				f.rate = math.Min(r, cappedOr(r, f.rateCap))
				frozen = append(frozen, f)
			}
		}
		if len(frozen) == 0 {
			// Numerical corner: force-freeze everything at λ to guarantee
			// termination.
			for f := range unfrozen {
				f.rate = lambda * f.weight
				frozen = append(frozen, f)
			}
		}
		// Charge frozen flows against their links and remove them. The
		// residual subtractions below are float folds, so the charge order
		// must not depend on map iteration: sort by start time (unique per
		// flow — ties broken by name for same-instant arrivals).
		sort.Slice(frozen, func(i, j int) bool {
			if frozen[i].start != frozen[j].start {
				return frozen[i].start < frozen[j].start
			}
			return frozen[i].name < frozen[j].name
		})
		for _, f := range frozen {
			for _, l := range f.path {
				st := ls[l]
				st.rem -= f.rate
				if st.rem < 0 {
					st.rem = 0
				}
				st.weight -= f.weight
			}
			delete(unfrozen, f)
		}
	}

	s.scheduleNextCompletion()
}

// dedupLinks returns the path with duplicate links removed, preserving
// first-occurrence order. Without this, a path like [a, a] would charge
// link a twice per freeze while its weight accounting counted the flow
// once, driving st.weight negative and silently disabling the link as a
// constraint for every later water-filling round (over-allocation).
func dedupLinks(path []*Link) []*Link {
	seen := make(map[*Link]struct{}, len(path))
	out := path[:0:0]
	for _, l := range path {
		if _, dup := seen[l]; dup {
			continue
		}
		seen[l] = struct{}{}
		out = append(out, l)
	}
	return out
}

func cappedOr(r, cap float64) float64 {
	if cap > 0 && r > cap {
		return cap
	}
	return r
}

// scheduleNextCompletion finds the earliest finishing flow under current
// rates and schedules its completion event.
func (s *Simulator) scheduleNextCompletion() {
	if s.nextCompletion != nil {
		s.nextCompletion.Stop()
		s.nextCompletion = nil
	}
	var first *Flow
	eta := math.Inf(1)
	for f := range s.flows {
		if f.rate <= 0 || math.IsInf(f.remaining, 1) {
			continue
		}
		t := f.remaining / f.rate
		if t < eta {
			eta = t
			first = f
		}
	}
	if first == nil {
		return
	}
	f := first
	s.nextCompletion = s.clock.After(eta, func() {
		s.complete(f)
	})
}

// completionTolerance treats a flow with under a thousandth of a bit
// left as finished. Without it, a remainder below the clock's floating-
// point resolution yields a completion ETA that cannot advance time,
// livelocking the event loop.
const completionTolerance = 1e-3 // bits

func (s *Simulator) complete(f *Flow) {
	s.settle(f)
	if f.remaining > completionTolerance {
		// A capacity change between scheduling and firing slowed the flow;
		// reallocate will reschedule. (Defensive: reallocate on any event
		// already reschedules, so in practice this does not trigger.)
		s.reallocate()
		return
	}
	f.done = true
	f.end = s.clock.Now()
	f.remaining = 0
	s.detach(f)
	s.reallocate()
	if f.onDone != nil {
		f.onDone(f)
	}
}

// Run drains the event queue (all bounded flows complete).
func (s *Simulator) Run() { s.clock.Run() }

// RunUntil advances virtual time to t, processing due events.
func (s *Simulator) RunUntil(t float64) { s.clock.RunUntil(t) }
