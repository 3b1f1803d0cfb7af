// Package fault is the repository's seeded, schedule-driven
// fault-injection layer. The paper's whole premise is scheduling over
// flaky paths (§4.1.1 blames MIN's estimator on "wireless
// variability"), and related offloading work treats device churn and
// mid-session path loss as the common case — so the reproduction must
// be exercised under a hostile edge, deterministically.
//
// The central type is the Plan: a compiled schedule of fault Windows on
// named targets (paths or devices), built from a named Scenario and a
// seed. A Plan is pure data on a float64-seconds timeline — it never
// reads a clock or the global rand source (the package is on 3golvet's
// SimPackages list) — so the same plan drives three consumers:
//
//   - live prototype paths, via the Path decorator (a scheduler.Path
//     wrapper) and the Conn/Dialer wrappers at the netem level;
//   - admission control, via Gate (a discovery.Beacon / permit-style
//     allow hook honouring departure and revocation windows);
//   - the fleet chaos harness, via Simulate — a virtual-time driver of
//     the scheduler's decision core (scheduler.Core) whose output is
//     bit-identical across runs.
//
// Five fault kinds cover the failure modes the resilience machinery in
// internal/scheduler must answer: path blackouts (connections refused,
// in-flight transfers die), mid-transfer connection resets, silent
// stalls (bytes stop, no error — only a progress watchdog catches
// these), device departure/flap, and permit revocation storms.
package fault

import (
	"fmt"
	"math"
	"sort"

	"threegol/internal/obs/eventlog"
)

// Kind classifies one fault window.
type Kind uint8

// Fault kinds.
const (
	// Blackout makes the target unreachable: new connections are
	// refused and in-flight transfers abort with a reset-style error.
	Blackout Kind = iota
	// Reset kills in-flight transfers while the window is active; new
	// attempts inside the window die immediately with a reset error
	// (the link is up — connections establish — but nothing survives).
	Reset
	// Stall freezes the byte stream without surfacing any error — the
	// failure mode only a progress watchdog can detect.
	Stall
	// Depart removes the device entirely: transfers behave as under
	// Blackout and admission gates report the device gone, so Φ
	// shrinks. A finite End models a flapping device.
	Depart
	// Revoke withdraws the device's permit: admission gates report it
	// inadmissible (the beacon falls silent) but in-flight transfers
	// are unaffected — the paper's network-integrated revocation.
	Revoke
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Blackout:
		return "blackout"
	case Reset:
		return "reset"
	case Stall:
		return "stall"
	case Depart:
		return "depart"
	case Revoke:
		return "revoke"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Forever marks a window that never closes (e.g. a permanent
// departure).
var Forever = math.Inf(1)

// Window is one fault interval [Start, End) on a named target, in
// seconds on the plan's timeline (virtual seconds in simulations,
// seconds since epoch for live decorators).
type Window struct {
	Target string
	Kind   Kind
	Start  float64
	End    float64
}

// contains reports whether t falls inside the window.
func (w Window) contains(t float64) bool { return t >= w.Start && t < w.End }

// Plan is a compiled, immutable fault schedule. Build one with NewPlan
// or Compile; all query methods are safe for concurrent use.
type Plan struct {
	byTarget map[string][]Window // sorted by Start, then End
}

// NewPlan builds a plan from explicit windows. Windows with End ≤
// Start are dropped; the rest are sorted per target.
func NewPlan(windows ...Window) *Plan {
	p := &Plan{byTarget: make(map[string][]Window)}
	for _, w := range windows {
		if w.End <= w.Start || w.Target == "" {
			continue
		}
		p.byTarget[w.Target] = append(p.byTarget[w.Target], w)
	}
	for _, ws := range p.byTarget {
		sort.Slice(ws, func(i, j int) bool {
			if ws[i].Start != ws[j].Start {
				return ws[i].Start < ws[j].Start
			}
			return ws[i].End < ws[j].End
		})
	}
	return p
}

// Windows returns the target's windows in start order (shared slice;
// callers must not mutate).
func (p *Plan) Windows(target string) []Window {
	if p == nil {
		return nil
	}
	return p.byTarget[target]
}

// Targets returns the sorted set of targets carrying at least one
// window.
func (p *Plan) Targets() []string {
	if p == nil {
		return nil
	}
	out := make([]string, 0, len(p.byTarget))
	for t := range p.byTarget {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// ActiveAt returns the earliest-starting window of one of the given
// kinds containing t (all kinds when none are given).
func (p *Plan) ActiveAt(target string, t float64, kinds ...Kind) (Window, bool) {
	if p == nil {
		return Window{}, false
	}
	for _, w := range p.byTarget[target] {
		if w.Start > t {
			break
		}
		if !w.contains(t) {
			continue
		}
		if len(kinds) == 0 {
			return w, true
		}
		for _, k := range kinds {
			if w.Kind == k {
				return w, true
			}
		}
	}
	return Window{}, false
}

// DeadAt reports whether the target is unreachable at t (an active
// Blackout or Depart window).
func (p *Plan) DeadAt(target string, t float64) bool {
	_, ok := p.ActiveAt(target, t, Blackout, Depart)
	return ok
}

// ResetAt reports an active Reset window at t.
func (p *Plan) ResetAt(target string, t float64) bool {
	_, ok := p.ActiveAt(target, t, Reset)
	return ok
}

// StalledAt returns the end of the stall window active at t, if any.
func (p *Plan) StalledAt(target string, t float64) (until float64, ok bool) {
	w, ok := p.ActiveAt(target, t, Stall)
	return w.End, ok
}

// RevokedAt reports whether the target's permit is revoked at t.
func (p *Plan) RevokedAt(target string, t float64) bool {
	_, ok := p.ActiveAt(target, t, Revoke)
	return ok
}

// AdmissibleAt reports whether the target may advertise itself at t:
// neither departed, blacked out, nor revoked — the Φ-membership
// question. Transfers in flight care about DeadAt instead.
func (p *Plan) AdmissibleAt(target string, t float64) bool {
	_, ok := p.ActiveAt(target, t, Blackout, Depart, Revoke)
	return !ok
}

// NextDisruption returns the start of the earliest window of the given
// kinds strictly after t (all kinds when none given), or Forever.
func (p *Plan) NextDisruption(target string, t float64, kinds ...Kind) float64 {
	if p == nil {
		return Forever
	}
	next := Forever
	for _, w := range p.byTarget[target] {
		if w.Start <= t {
			continue
		}
		if w.Start >= next {
			break
		}
		if len(kinds) == 0 {
			next = w.Start
			break
		}
		for _, k := range kinds {
			if w.Kind == k {
				next = w.Start
				break
			}
		}
	}
	return next
}

// Gate adapts the plan into an admission hook: the returned func
// reports whether target is admissible on the supplied time source — a
// composable discovery.Beacon / permit-client gate for live runs
// driven by a fault plan.
func (p *Plan) Gate(target string, now func() float64) func() bool {
	return func() bool { return p.AdmissibleAt(target, now()) }
}

// MixSeed derives a sub-seed from a parent seed and two indexes — the
// sanctioned way to give every (home, session) chaos transaction its
// own independent plan stream without wall clock or global rand.
func MixSeed(seed int64, a, b int) int64 {
	return int64(eventlog.SplitMix64(uint64(seed) ^ eventlog.SplitMix64(uint64(a)<<32^uint64(uint32(b)))))
}
