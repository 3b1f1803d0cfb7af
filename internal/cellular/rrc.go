package cellular

import "math/rand"

// rrcState is the radio-resource-control state of a handset, in
// increasing readiness order.
type rrcState int

const (
	rrcIdle rrcState = iota
	rrcFach
	rrcDch
)

// RRC is a handset's radio-resource-control machine: IDLE, FACH and DCH.
// A transfer begun outside DCH owes a channel promotion (the paper's "3G"
// start mode); an ICMP train warms the handset straight to DCH ("H"
// mode). The value holds no clock: each step is told the time, in
// seconds, and the demotions a quiet spell has walked the handset
// through — DCH→FACH after Params.DCHInactivity, FACH→IDLE after
// FACHInactivity more — are worked out when it is next stepped. The
// simulated Device steps it in virtual time and core's live phone in
// emulated time. The zero value is an IDLE handset.
type RRC struct {
	state  rrcState
	active int     // transfers in flight
	quiet  float64 // when the current quiet spell began
}

// settle applies the demotions the quiet spell has reached by now.
func (r *RRC) settle(now float64, p Params) {
	if r.active > 0 || r.state == rrcIdle {
		return
	}
	switch q := now - r.quiet; {
	case q >= p.DCHInactivity+p.FACHInactivity:
		r.state = rrcIdle
	case q >= p.DCHInactivity:
		r.state = rrcFach
	}
}

// Begin starts a transfer at now and returns the promotion it owes in
// seconds: 0 in DCH, else the state's base delay with ±20 % jitter. rng
// is drawn only when a promotion is owed. A promotion from FACH never
// costs more than one from IDLE, whatever Params say (LTE's IDLE
// promotion is shorter than HSPA's FACH one).
func (r *RRC) Begin(now float64, p Params, rng *rand.Rand) float64 {
	r.settle(now, p)
	r.active++
	base := p.PromotionIdle
	switch r.state {
	case rrcDch:
		return 0
	case rrcFach:
		base = min(p.PromotionFACH, base)
	}
	r.state = rrcDch
	return base * (1 + 0.2*(2*rng.Float64()-1))
}

// End finishes a transfer at now; the last one to end starts a quiet
// spell.
func (r *RRC) End(now float64) {
	r.active--
	if r.active == 0 {
		r.quiet = now
	}
}

// WarmUp promotes the handset straight to DCH at now, as the paper's
// 0.1 s-spaced ICMP train does; with nothing in flight, a quiet spell
// starts afresh.
func (r *RRC) WarmUp(now float64) {
	r.state = rrcDch
	if r.active == 0 {
		r.quiet = now
	}
}
