// Package fault is the repository's seeded, schedule-driven
// fault-injection layer. The paper's whole premise is scheduling over
// flaky paths (§4.1.1 blames MIN's estimator on "wireless
// variability"), and related offloading work treats device churn and
// mid-session path loss as the common case — so the reproduction must
// be exercised under a hostile edge, deterministically.
//
// The package is a plan and a simulator. A Plan is a compiled schedule
// of fault Windows on named targets (paths or devices), built from a
// named Scenario and a seed. It is pure data on a float64-seconds
// timeline — it never reads a clock or the global rand source (the
// package is on 3golvet's SimPackages list). Simulate plays one
// transaction against a plan in virtual time: a driver of the
// scheduler's decision core (scheduler.Core) whose output is
// bit-identical across runs, behind the fleet chaos harness. Its
// attempt walk is the one statement of what a fault does to a
// transfer; the live driver's property test moves bytes in real time
// by the same walk.
//
// Five fault kinds cover the failure modes the resilience machinery in
// internal/scheduler must answer: path blackouts (in-flight transfers
// die, new ones die at once), mid-transfer connection resets, silent
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
	// Blackout makes the target unreachable: an attempt in flight dies
	// at the window's opening edge, and one started inside it dies at
	// once.
	Blackout Kind = iota
	// Reset kills attempts as Blackout does (the link is up —
	// connections establish — but nothing survives the window).
	Reset
	// Stall freezes the byte stream without surfacing any error — the
	// failure mode only a progress watchdog can detect. Simulate
	// resumes the attempt at the window's end unless
	// Options.StallTimeout aborts it first.
	Stall
	// Depart removes the device entirely: Simulate kills its attempts
	// as under Blackout. A finite End models a flapping device.
	Depart
	// Revoke withdraws the device's permit — the paper's
	// network-integrated revocation (§2.4). Simulate starts no attempt
	// on the path inside the window and wakes it at End (never, for a
	// Forever window); attempts in flight run on.
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
// seconds on the plan's timeline (virtual seconds in Simulate; a live
// test reads it as seconds since the transaction started).
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

// NextDisruption returns the start of the target's earliest window
// strictly after t, or Forever.
func (p *Plan) NextDisruption(target string, t float64) float64 {
	if p == nil {
		return Forever
	}
	for _, w := range p.byTarget[target] {
		if w.Start > t {
			return w.Start
		}
	}
	return Forever
}

// MixSeed derives a sub-seed from a parent seed and two indexes — the
// sanctioned way to give every (home, session) chaos transaction its
// own independent plan stream without wall clock or global rand.
func MixSeed(seed int64, a, b int) int64 {
	return int64(eventlog.SplitMix64(uint64(seed) ^ eventlog.SplitMix64(uint64(a)<<32^uint64(uint32(b)))))
}
