package core

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"threegol/internal/cellular"
	"threegol/internal/diurnal"
	"threegol/internal/linksim"
	"threegol/internal/simclock"
)

// rrcClock is a manual clock for the phones' RRC state: Now moves only
// when the test advances it, and Sleep returns at once, counting what a
// promotion would have cost.
type rrcClock struct {
	mu    sync.Mutex
	now   time.Time
	slept time.Duration
}

func (c *rrcClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *rrcClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *rrcClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slept += d
}

func (c *rrcClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func (c *rrcClock) promotions() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slept
}

// rrcScale is the TimeScale of the RRC tests' homes.
const rrcScale = 1000

// emulated converts emulated seconds to the wall time they take at
// rrcScale.
func emulated(s float64) time.Duration {
	return time.Duration(s / rrcScale * float64(time.Second))
}

// rrcHome starts a home on a manual clock. The session it returns takes
// a new client through a phone, posts a body through it, lets activeFor
// of emulated time pass and posts another; it returns the promotion the
// session paid, in emulated seconds. Sessions share the phone's pooled
// connection. The proxy accounts every byte as it reads it, before the
// target can answer.
func rrcHome(t *testing.T, phones ...PhoneConfig) (*Home, *rrcClock, func(ph *Phone, activeFor float64) float64) {
	t.Helper()
	clk := &rrcClock{now: time.Unix(0, 0)}
	h, err := NewHome(HomeConfig{
		DSLDown: 2e6, DSLUp: 0.5e6, TimeScale: rrcScale, Seed: 42, Clock: clk, Phones: phones,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
	}))
	t.Cleanup(target.Close)
	post := func(c *http.Client) {
		t.Helper()
		resp, err := c.Post(target.URL, "application/octet-stream", strings.NewReader(strings.Repeat("x", 32<<10)))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	session := func(ph *Phone, activeFor float64) float64 {
		t.Helper()
		before := clk.promotions()
		c := h.PhoneClient(ph)
		post(c)
		clk.advance(emulated(activeFor))
		post(c)
		return (clk.promotions() - before).Seconds() * rrcScale
	}
	return h, clk, session
}

// within reports whether a promotion paid is its base delay ±20 %.
func within(paid, base float64) bool {
	return paid >= 0.8*base-1e-6 && paid <= 1.2*base+1e-6
}

// A phone whose proxy carries traffic stays in DCH: its quiet spell runs
// from the last byte moved, not from the last dial, so back-to-back
// sessions on a warm phone pay no promotion. A phone quiet past
// DCHInactivity pays the FACH promotion, and one quiet past both timers
// the IDLE promotion.
func TestPhoneMovingBytesStaysWarm(t *testing.T) {
	p := cellular.DefaultParams()
	h, clk, session := rrcHome(t, warmPhone("ph1"))
	ph := h.Phones[0]

	session(ph, p.DCHInactivity*0.8) // dials warm, then moves bytes 0.8 DCHInactivity later
	clk.advance(emulated(p.DCHInactivity * 0.8))
	// 1.6 DCHInactivity since the last dial, 0.8 since the last byte.
	if paid := session(ph, 0); paid != 0 {
		t.Errorf("a phone active %vs ago paid %vs of promotion on a new session", p.DCHInactivity*0.8, paid)
	}

	clk.advance(emulated(p.DCHInactivity * 1.2))
	if paid := session(ph, 0); !within(paid, p.PromotionFACH) {
		t.Errorf("a phone quiet %vs (DCHInactivity %vs) paid %vs of promotion, want FACH's %vs ±20%%",
			p.DCHInactivity*1.2, p.DCHInactivity, paid, p.PromotionFACH)
	}

	quiet := (p.DCHInactivity + p.FACHInactivity) * 1.2
	clk.advance(emulated(quiet))
	if paid := session(ph, 0); !within(paid, p.PromotionIdle) {
		t.Errorf("a phone quiet %vs paid %vs of promotion, want IDLE's %vs ±20%%", quiet, paid, p.PromotionIdle)
	}
}

// Sessions share a phone's pooled connection, and each still pays the
// promotion its RRC state owes: the charge is made at a session's first
// request, not at the dial that a pooled connection skips.
func TestPooledConnectionPaysPromotion(t *testing.T) {
	p := cellular.DefaultParams()
	h, clk, session := rrcHome(t, warmPhone("ph1"))
	ph := h.Phones[0]
	dials := countDials(ph)

	if paid := session(ph, 0); paid != 0 {
		t.Errorf("a warm phone paid %vs of promotion", paid)
	}
	quiet := (p.DCHInactivity + p.FACHInactivity) * 1.2
	clk.advance(emulated(quiet))
	if paid := session(ph, 0); !within(paid, p.PromotionIdle) {
		t.Errorf("a session on a pooled connection to a phone quiet %vs paid %vs of promotion, want IDLE's %vs ±20%%",
			quiet, paid, p.PromotionIdle)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("two sessions dialled the phone's proxy %d times, want 1: the second did not reuse the pooled connection", n)
	}
}

// One activity script drives the simulated cellular.Device in virtual
// time and the live core.Phone on a manual clock, and both see the same
// RRC states: each promotion a transaction pays names the state it
// started from, and lies within ±20 % of that state's base.
func TestOneRRCRuleDrivesBothHandsets(t *testing.T) {
	p := cellular.DefaultParams()
	script := []struct {
		name  string
		cold  bool    // start on a fresh, unwarmed handset
		quiet float64 // emulated seconds since the last transaction
		want  string
	}{
		{"warm, then busy", false, 0, "DCH"},
		{"quiet 0.8 DCHInactivity", false, 0.8 * p.DCHInactivity, "DCH"},
		{"quiet between the timers", false, p.DCHInactivity + 0.5*p.FACHInactivity, "FACH"},
		{"quiet past both", false, 1.2 * (p.DCHInactivity + p.FACHInactivity), "IDLE"},
		{"cold start", true, 0, "IDLE"},
	}
	state := func(paid float64) string {
		switch {
		case paid < 1e-3:
			return "DCH"
		case within(paid, p.PromotionFACH):
			return "FACH"
		case within(paid, p.PromotionIdle):
			return "IDLE"
		}
		return "none"
	}

	// The simulator: a quiet cell, and a transfer of one byte, which
	// lasts its promotion and microseconds more.
	clock := simclock.New()
	sim := linksim.New(clock)
	network := cellular.NewNetwork(sim, rand.New(rand.NewSource(1)), p)
	network.AddBaseStation(cellular.BaseStationConfig{Name: "bs", Sectors: 1, Load: diurnal.New([24]float64{})})
	dev, cold := network.Attach("warm", -82), network.Attach("cold", -82)
	dev.WarmUp()
	var simSeen []string
	for _, step := range script {
		d := dev
		if step.cold {
			d = cold
		}
		clock.RunUntil(clock.Now() + step.quiet)
		var done *cellular.Transfer
		d.StartTransfer(cellular.Downlink, 8, func(tr *cellular.Transfer) { done = tr })
		for done == nil && clock.Step() {
		}
		if done == nil {
			t.Fatalf("%s: the simulated transfer never completed", step.name)
		}
		simSeen = append(simSeen, state(done.Duration()))
	}

	// The live phone: a warm one for the script, a cold one for its end.
	h, clk, session := rrcHome(t, warmPhone("warm"), PhoneConfig{Name: "cold", Down: 2e6, Up: 1.5e6})
	var liveSeen []string
	for _, step := range script {
		ph := h.Phones[0]
		if step.cold {
			ph = h.Phones[1]
		}
		clk.advance(emulated(step.quiet))
		liveSeen = append(liveSeen, state(session(ph, 0)))
	}

	for i, step := range script {
		if simSeen[i] != step.want || liveSeen[i] != step.want {
			t.Errorf("%s: the simulated device started from %s, the live phone from %s, want %s",
				step.name, simSeen[i], liveSeen[i], step.want)
		}
	}
}
