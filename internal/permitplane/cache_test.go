package permitplane

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"threegol/internal/obs"
	"threegol/internal/obs/eventlog"
	"threegol/internal/permit"
)

// grantingFetch returns a Fetch that always grants with the given TTL
// and counts its calls.
func grantingFetch(count *atomic.Int64, ttl time.Duration) func(ctx context.Context, device, cell string) (permit.Response, error) {
	return func(ctx context.Context, device, cell string) (permit.Response, error) {
		count.Add(1)
		return permit.Response{Granted: true, TTLSeconds: ttl.Seconds()}, nil
	}
}

// TestCacheJitterSpreadsRefreshBurst is the thundering-herd guarantee:
// 10k devices all granted in the same instant (a backend restart) must
// not come back in the same instant. The jitter stream is seeded, so
// this distribution is exact and replayable — the bound is a property
// of the algorithm, not of a lucky run.
func TestCacheJitterSpreadsRefreshBurst(t *testing.T) {
	const (
		clients = 10000
		ttl     = 3 * time.Minute
		step    = time.Second
	)
	clk := &fakeClock{}
	var fetches atomic.Int64
	caches := make([]*Cache, clients)
	for i := range caches {
		caches[i] = &Cache{
			Fetch:  grantingFetch(&fetches, ttl),
			Device: fmt.Sprintf("device-%d", i),
			Cell:   "bs0/s0",
			Seed:   1,
			Clock:  clk,
		}
		// Synchronised initial grant: every device refreshes at t=0.
		if !caches[i].Allowed(context.Background()) {
			t.Fatal("initial grant failed")
		}
	}
	if got := fetches.Load(); got != clients {
		t.Fatalf("%d initial fetches for %d clients", got, clients)
	}

	// Step virtual time one second at a time across the TTL and count
	// refreshes per step. Proactive refreshes land in
	// [0.7, 0.95]×TTL = a 45-second window, so a uniform spread puts
	// ~222 of 10k clients in each second.
	steps := int(ttl / step)
	perStep := make([]int, steps+1)
	total := 0
	for s := 1; s <= steps; s++ {
		clk.advance(step)
		before := fetches.Load()
		for _, c := range caches {
			c.Allowed(context.Background())
		}
		n := int(fetches.Load() - before)
		perStep[s] = n
		total += n
	}
	if total < clients {
		t.Errorf("only %d refreshes across one TTL for %d clients", total, clients)
	}
	maxBurst, at := 0, 0
	for s, n := range perStep {
		if n > maxBurst {
			maxBurst, at = n, s
		}
	}
	// The herd bound: a uniform spread over the 45 s window expects
	// ~222/step; allow 2× for hash clumping. Without jitter all 10k
	// would land in a single step.
	if maxBurst > 450 {
		t.Errorf("refresh burst of %d clients at t=%ds; jitter is not spreading the herd", maxBurst, at)
	}
	// And the window is honoured: no proactive refresh before 0.7×TTL
	// (126 s) or at/after expiry.
	for s := 1; s < 126; s++ {
		if perStep[s] != 0 {
			t.Errorf("refresh at t=%ds, before the 0.7×TTL window opens", s)
		}
	}
}

// TestCacheTTLBoundary pins the expiry edge the way the discovery flap
// test pins Φ: with proactive refresh disabled the cached permit must
// serve up to the last instant before expiry and refresh exactly at it
// — not one step early, not one step late.
func TestCacheTTLBoundary(t *testing.T) {
	const ttl = 3 * time.Minute
	clk := &fakeClock{}
	var fetches atomic.Int64
	c := &Cache{
		Fetch:     grantingFetch(&fetches, ttl),
		Device:    "d0",
		Cell:      "bs0/s0",
		Clock:     clk,
		RefreshLo: 1, RefreshHi: 1, // refresh exactly at expiry
	}
	if !c.Allowed(context.Background()) {
		t.Fatal("initial grant failed")
	}
	if fetches.Load() != 1 {
		t.Fatalf("%d fetches after first Allowed, want 1", fetches.Load())
	}

	clk.advance(ttl - time.Nanosecond)
	if !c.Allowed(context.Background()) {
		t.Error("permit not served just before expiry")
	}
	if fetches.Load() != 1 {
		t.Errorf("refreshed %d times before the boundary, want no refresh", fetches.Load()-1)
	}

	clk.advance(time.Nanosecond) // exactly at expiry
	if !c.Allowed(context.Background()) {
		t.Error("refresh at expiry failed")
	}
	if fetches.Load() != 2 {
		t.Errorf("%d fetches at the boundary, want exactly 2", fetches.Load())
	}

	// Flapping around the boundary must not re-fetch: the new permit is
	// fresh for another TTL.
	clk.advance(time.Nanosecond)
	c.Allowed(context.Background())
	if fetches.Load() != 2 {
		t.Errorf("fetch repeated just after the boundary: %d total", fetches.Load())
	}
}

func TestCacheSingleflightCoalesces(t *testing.T) {
	const waiters = 16
	clk := &fakeClock{}
	release := make(chan struct{})
	var fetches atomic.Int64
	c := &Cache{
		Fetch: func(ctx context.Context, device, cell string) (permit.Response, error) {
			fetches.Add(1)
			<-release
			return permit.Response{Granted: true, TTLSeconds: 60}, nil
		},
		Device:  "d0",
		Cell:    "bs0/s0",
		Clock:   clk,
		Metrics: NewMetrics(obs.NewRegistry()),
	}

	results := make(chan bool, waiters)
	var started sync.WaitGroup
	started.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			started.Done()
			results <- c.Allowed(context.Background())
		}()
	}
	started.Wait()
	// Give the losers time to reach the flight wait, then release the
	// single winner's fetch.
	for c.Metrics.CacheCoalesced.With().Value() < waiters-1 {
		time.Sleep(time.Millisecond) //3golvet:allow wallclock — test polls real goroutines
	}
	close(release)
	for i := 0; i < waiters; i++ {
		if !<-results {
			t.Error("coalesced waiter denied despite granted refresh")
		}
	}
	if got := fetches.Load(); got != 1 {
		t.Errorf("%d backend fetches for %d concurrent callers, want 1", got, waiters)
	}
}

func TestCacheStaleWhileRefreshServesCachedVerdict(t *testing.T) {
	clk := &fakeClock{}
	release := make(chan struct{})
	first := true
	c := &Cache{
		Fetch: func(ctx context.Context, device, cell string) (permit.Response, error) {
			if first {
				first = false
				return permit.Response{Granted: true, TTLSeconds: 60}, nil
			}
			<-release
			return permit.Response{Granted: true, TTLSeconds: 60}, nil
		},
		Device: "d0", Cell: "bs0/s0", Clock: clk,
		RefreshLo: 0.5, RefreshHi: 0.5,
	}
	if !c.Allowed(context.Background()) {
		t.Fatal("initial grant failed")
	}
	clk.advance(31 * time.Second) // inside the proactive window, still fresh

	// First caller wins the flight and blocks in Fetch; a second caller
	// must be served the still-valid cached verdict without waiting.
	winnerDone := make(chan bool, 1)
	go func() {
		winnerDone <- c.Allowed(context.Background())
	}()
	for {
		c.mu.Lock()
		inFlight := c.flight != nil
		c.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(time.Millisecond) //3golvet:allow wallclock — test polls real goroutines
	}
	if !c.Allowed(context.Background()) {
		t.Error("stale-while-refresh did not serve the valid cached permit")
	}
	close(release)
	if !<-winnerDone {
		t.Error("refresh winner denied despite granted refresh")
	}
}

func TestCacheFailedProactiveRefreshKeepsPermit(t *testing.T) {
	clk := &fakeClock{}
	fail := false
	log := eventlog.New(0, 1, nil)
	c := &Cache{
		Fetch: func(ctx context.Context, device, cell string) (permit.Response, error) {
			if fail {
				return permit.Response{}, fmt.Errorf("backend down")
			}
			return permit.Response{Granted: true, TTLSeconds: 60}, nil
		},
		Device: "d0", Cell: "bs0/s0", Clock: clk,
		RefreshLo: 0.5, RefreshHi: 0.5,
		Events: log,
	}
	if !c.Allowed(context.Background()) {
		t.Fatal("initial grant failed")
	}
	fail = true
	clk.advance(31 * time.Second) // proactive refresh due, permit valid until 60s
	if !c.Allowed(context.Background()) {
		t.Error("failed proactive refresh revoked a permit whose TTL had not lapsed")
	}
	want := []map[string]string{
		{"cell": "bs0/s0", "granted": "true", "ok": "true", "proactive": "false"},
		{"cell": "bs0/s0", "granted": "false", "ok": "false", "proactive": "true"},
	}
	if evs := log.Events(); len(evs) != len(want) {
		t.Errorf("%d events for two refreshes, want %d", len(evs), len(want))
	} else {
		for i, ev := range evs {
			if ev.Name != "permitplane.cache_refresh" || !maps.Equal(ev.Attrs, want[i]) {
				t.Errorf("refresh %d recorded %s %v, want permitplane.cache_refresh %v", i, ev.Name, ev.Attrs, want[i])
			}
		}
	}
	clk.advance(30 * time.Second) // now past the granted TTL
	if c.Allowed(context.Background()) {
		t.Error("permit served past its TTL while the backend is down")
	}
}

func TestCacheDenialCooldown(t *testing.T) {
	clk := &fakeClock{}
	var fetches atomic.Int64
	c := &Cache{
		Fetch: func(ctx context.Context, device, cell string) (permit.Response, error) {
			fetches.Add(1)
			return permit.Response{Granted: false}, nil
		},
		Device: "d0", Cell: "bs0/s0", Clock: clk,
	}
	if c.Allowed(context.Background()) {
		t.Fatal("denied permit reported allowed")
	}
	c.Allowed(context.Background())
	if fetches.Load() != 1 {
		t.Errorf("denial re-fetched inside the cooldown: %d fetches", fetches.Load())
	}
	clk.advance(denyCooldown)
	c.Allowed(context.Background())
	if fetches.Load() != 2 {
		t.Errorf("denial not re-checked after the cooldown: %d fetches", fetches.Load())
	}
}
