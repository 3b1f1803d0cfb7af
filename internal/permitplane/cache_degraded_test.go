package permitplane

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"threegol/internal/obs"
	"threegol/internal/permit"
	"threegol/internal/scheduler"
)

// flakyBackend is a Fetch double with a reachability switch.
type flakyBackend struct {
	calls   atomic.Int64
	healthy atomic.Bool
	ttl     time.Duration
}

func (b *flakyBackend) fetch(ctx context.Context, device, cell string) (permit.Response, error) {
	b.calls.Add(1)
	if !b.healthy.Load() {
		return permit.Response{}, errors.New("connection refused")
	}
	return permit.Response{Granted: true, TTLSeconds: b.ttl.Seconds()}, nil
}

// mode reports "normal" or "degraded": whether the cache's breaker is
// open.
func mode(c *Cache) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.breaker.Open() {
		return "degraded"
	}
	return "normal"
}

// tripBreaker drives consecutive refresh failures until the cache goes
// degraded, advancing the clock past each error cooldown.
func tripBreaker(t *testing.T, c *Cache, clk *fakeClock) {
	t.Helper()
	for i := 0; i < DefaultBreakerThreshold; i++ {
		if c.Allowed(context.Background()) && !c.FailOpen {
			t.Fatal("fail-closed cache granted during blackout")
		}
		if mode(c) == "degraded" {
			return
		}
		clk.advance(errorCooldown + time.Second)
	}
	if mode(c) != "degraded" {
		t.Fatalf("cache still %s after %d consecutive failures", mode(c), DefaultBreakerThreshold)
	}
}

// TestCacheDegradedFailClosed pins the breaker lifecycle: consecutive
// failures open it, an open breaker serves locally without backend
// round trips, failed probes escalate the cooldown, and a successful
// probe re-closes it.
func TestCacheDegradedFailClosed(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000, 0)}
	b := &flakyBackend{ttl: time.Minute}
	c := &Cache{Fetch: b.fetch, Device: "d0", Cell: "bs0/s0", Clock: clk}
	tripBreaker(t, c, clk)
	tripCalls := b.calls.Load()

	// Breaker open, cooldown pending: verdicts are local.
	clk.advance(time.Second) // still inside DefaultBreakerCooldown (2s)
	for i := 0; i < 5; i++ {
		if c.Allowed(context.Background()) {
			t.Fatal("fail-closed degraded cache granted")
		}
	}
	if got := b.calls.Load(); got != tripCalls {
		t.Errorf("degraded cache issued %d backend round trips", got-tripCalls)
	}

	// Cooldown elapsed: exactly one call probes, fails, and doubles the
	// hold.
	clk.advance(2 * time.Second)
	c.Allowed(context.Background())
	if got := b.calls.Load(); got != tripCalls+1 {
		t.Fatalf("half-open window issued %d probes, want 1", got-tripCalls)
	}
	clk.advance(time.Second) // doubled cooldown (4s) still pending
	c.Allowed(context.Background())
	if got := b.calls.Load(); got != tripCalls+1 {
		t.Errorf("probe inside doubled cooldown: %d extra calls", got-tripCalls-1)
	}

	// Backend recovers: the next probe closes the breaker and grants.
	b.healthy.Store(true)
	clk.advance(4 * time.Second)
	if !c.Allowed(context.Background()) {
		t.Error("recovered backend probe did not grant")
	}
	if mode(c) != "normal" {
		t.Errorf("mode %q after successful probe, want normal", mode(c))
	}
}

// TestCacheFailOpenGraceBoundary is the deterministic grace-window pin:
// a fail-open degraded cache honours the last granted permit one second
// before the grace boundary and rejects it one second after — under an
// injected clock, so the edge is exact, not racy.
func TestCacheFailOpenGraceBoundary(t *testing.T) {
	const (
		ttl   = 10 * time.Second
		grace = 30 * time.Second
	)
	clk := &fakeClock{t: time.Unix(1_000, 0)}
	b := &flakyBackend{ttl: ttl}
	b.healthy.Store(true)
	c := &Cache{
		Fetch: b.fetch, Device: "d0", Cell: "bs0/s0", Clock: clk,
		FailOpen: true, Grace: grace,
		// Refresh exactly at expiry: no proactive jitter, so the grant
		// expiry — and therefore the grace boundary — is exact.
		RefreshLo: 1, RefreshHi: 1,
	}
	if !c.Allowed(context.Background()) {
		t.Fatal("initial grant failed")
	}
	grantExpiry := clk.Now().Add(ttl)

	// The daemon dies; the TTL lapses and the breaker trips.
	b.healthy.Store(false)
	clk.advance(ttl)
	tripBreaker(t, c, clk)

	// Inside the grace window the stale grant keeps serving.
	boundary := grantExpiry.Add(grace)
	clk.set(boundary.Add(-time.Second))
	if !c.Allowed(context.Background()) {
		t.Error("stale grant rejected at grace-1s")
	}
	clk.set(boundary.Add(time.Second))
	if c.Allowed(context.Background()) {
		t.Error("stale grant honoured at grace+1s")
	}
	// The boundary is sticky: repeated calls stay rejected (the verdict
	// is recomputed, never cached back into the TTL state).
	for i := 0; i < 3; i++ {
		if c.Allowed(context.Background()) {
			t.Fatal("stale grant resurrected after the boundary")
		}
	}

	// Recovery ends degraded mode and re-grants normally.
	b.healthy.Store(true)
	clk.advance(time.Minute)
	if !c.Allowed(context.Background()) {
		t.Error("recovered backend did not re-grant")
	}
	if mode(c) != "normal" {
		t.Errorf("mode %q after recovery, want normal", mode(c))
	}
}

// TestCacheDegradedSchedulerFallsBack is the PR 5 blackout behaviour
// through the permit plane: a degraded fail-closed cache gates the 3G
// path shut, and the scheduler completes the whole transaction on ADSL
// alone.
func TestCacheDegradedSchedulerFallsBack(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000, 0)}
	b := &flakyBackend{ttl: time.Minute}
	c := &Cache{Fetch: b.fetch, Device: "d0", Cell: "bs0/s0", Clock: clk}
	tripBreaker(t, c, clk)

	adsl := &stubPath{name: "adsl", n: 100}
	gated := GatePath(&stubPath{name: "3g", n: 100}, c.Allowed)
	items := make([]scheduler.Item, 6)
	for i := range items {
		items[i] = scheduler.Item{ID: i, Size: 100}
	}
	rep, err := scheduler.Run(context.Background(), scheduler.Greedy, items,
		[]scheduler.Path{adsl, gated}, scheduler.Options{})
	if err != nil {
		t.Fatalf("transaction failed during permit blackout: %v", err)
	}
	if got := rep.PerPath["adsl"].Items; got != len(items) {
		t.Errorf("adsl completed %d of %d items", got, len(items))
	}
	if got := rep.PerPath["3g"].Items; got != 0 {
		t.Errorf("3g completed %d items with no permit", got)
	}
}

// TestMissingBatchRouteDegradesCache pins what a backend without POST
// /permits/batch means to the device: the batch fails with the status,
// the cache trips its breaker on those failures and fails closed, and a
// gated 3G path leaves the transaction to ADSL.
func TestMissingBatchRouteDegradesCache(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle("/permit", New(Config{Utilization: testUtil, Clock: &fakeClock{}}))
	srv := httptest.NewServer(mux) // /permits/batch is a 404
	defer srv.Close()
	bc := &BatchClient{BackendURL: srv.URL}

	_, err := bc.Batch(context.Background(), []PermitRequest{{Device: "d0", Cell: "cell-0"}})
	if err == nil || !strings.Contains(err.Error(), "404 Not Found") {
		t.Fatalf("batch against a backend without the route: err %v, want one naming 404 Not Found", err)
	}

	clk := &fakeClock{t: time.Unix(1_000, 0)}
	m := NewMetrics(obs.NewRegistry())
	c := &Cache{Fetch: bc.Fetch, Device: "d0", Cell: "cell-0", Clock: clk, Metrics: m}
	tripBreaker(t, c, clk)
	if got := m.CacheRefreshes.With(resultError).Value(); got != DefaultBreakerThreshold {
		t.Errorf("degraded after %d failed refreshes, want %d", got, DefaultBreakerThreshold)
	}
	if c.Allowed(context.Background()) {
		t.Error("degraded cache granted without a reachable batch route")
	}

	adsl := &stubPath{name: "adsl", n: 100}
	gated := GatePath(&stubPath{name: "3g", n: 100}, c.Allowed)
	items := make([]scheduler.Item, 6)
	for i := range items {
		items[i] = scheduler.Item{ID: i, Size: 100}
	}
	rep, err := scheduler.Run(context.Background(), scheduler.Greedy, items,
		[]scheduler.Path{adsl, gated}, scheduler.Options{})
	if err != nil {
		t.Fatalf("transaction failed without a batch route: %v", err)
	}
	if got := rep.PerPath["adsl"].Items; got != len(items) {
		t.Errorf("adsl completed %d of %d items", got, len(items))
	}
	if got := rep.PerPath["3g"].Items; got != 0 {
		t.Errorf("3g completed %d items with no permit", got)
	}
}

// TestCacheCallerCancellationLeavesCacheAlone pins that a caller giving
// up mid-refresh — a GRD loser replica, a client hanging up on the proxy
// — is not a backend failure: it neither caches a refusal that other
// callers then read nor counts towards the breaker.
func TestCacheCallerCancellationLeavesCacheAlone(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000, 0)}
	var hang atomic.Bool
	var calls atomic.Int64
	fetch := func(ctx context.Context, device, cell string) (permit.Response, error) {
		calls.Add(1)
		if hang.Load() {
			<-ctx.Done()
			return permit.Response{}, ctx.Err()
		}
		return permit.Response{Granted: true, TTLSeconds: time.Minute.Seconds()}, nil
	}
	c := &Cache{Fetch: fetch, Device: "d0", Cell: "bs0/s0", Clock: clk}
	// cancelledCall is one caller that gives up while its refresh hangs.
	cancelledCall := func() {
		t.Helper()
		hang.Store(true)
		defer hang.Store(false)
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		if c.Allowed(ctx) {
			t.Fatal("cancelled caller granted")
		}
	}

	for i := 0; i < DefaultBreakerThreshold; i++ {
		cancelledCall()
		clk.advance(errorCooldown + time.Second)
	}
	if got := calls.Load(); got != DefaultBreakerThreshold {
		t.Fatalf("%d cancelled refreshes reached the backend, want %d", got, DefaultBreakerThreshold)
	}
	if mode(c) != "normal" {
		t.Errorf("mode %q after %d cancelled callers, want normal", mode(c), DefaultBreakerThreshold)
	}

	cancelledCall()
	if !c.Allowed(context.Background()) {
		t.Error("a cancelled caller's refresh denied the next caller against a healthy backend")
	}
}

// TestCacheBreakerHoldCapsAndResets drives the cache's breaker through
// repeated failed probes: each opening holds twice the last, from
// DefaultBreakerCooldown up to DefaultBreakerMaxCooldown, and one
// successful probe resets the next opening to DefaultBreakerCooldown.
func TestCacheBreakerHoldCapsAndResets(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000, 0)}
	b := &flakyBackend{ttl: time.Minute}
	c := &Cache{Fetch: b.fetch, Device: "d0", Cell: "bs0/s0", Clock: clk}

	// holdEnds checks that the opening at opened holds exactly hold: no
	// probe a millisecond early, one probe on the instant.
	holdEnds := func(opened time.Time, hold time.Duration) {
		t.Helper()
		calls := b.calls.Load()
		clk.set(opened.Add(hold - time.Millisecond))
		c.Allowed(context.Background())
		if got := b.calls.Load(); got != calls {
			t.Fatalf("probe %v before the %v hold ended", time.Millisecond, hold)
		}
		clk.set(opened.Add(hold))
		c.Allowed(context.Background())
		if got := b.calls.Load(); got != calls+1 {
			t.Fatalf("%d probes when the %v hold ended, want 1", got-calls, hold)
		}
	}

	tripBreaker(t, c, clk)
	opened := clk.Now()
	for _, s := range []int{2, 4, 8, 16, 30, 30} {
		holdEnds(opened, time.Duration(s)*time.Second)
		opened = clk.Now()
		if mode(c) != "degraded" {
			t.Fatalf("failed probe left the cache %s", mode(c))
		}
	}

	b.healthy.Store(true)
	holdEnds(opened, DefaultBreakerMaxCooldown)
	if mode(c) != "normal" {
		t.Fatalf("mode %q after a successful probe, want normal", mode(c))
	}

	b.healthy.Store(false)
	c.mu.Lock() // drop the cached permit, forcing a refresh on next use
	c.haveState, c.expires, c.refreshAt = false, time.Time{}, time.Time{}
	c.mu.Unlock()
	tripBreaker(t, c, clk)
	holdEnds(clk.Now(), DefaultBreakerCooldown)
}
