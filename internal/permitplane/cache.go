package permitplane

import (
	"context"
	"strconv"
	"sync"
	"time"

	"threegol/internal/clock"
	"threegol/internal/obs/eventlog"
	"threegol/internal/permit"
	"threegol/internal/scheduler"
)

// Refresh-window defaults: a granted permit is proactively refreshed at
// a deterministic, per-device-jittered point in [lo, hi]×TTL, so a
// fleet of devices granted together never returns together.
const (
	DefaultRefreshLo = 0.7
	DefaultRefreshHi = 0.95
)

// Cooldowns after non-granted refreshes: a denial is re-checked after a
// few seconds ("the transmission is denied, and the device does not
// advertise"), a backend failure backs off briefly so a dead backend
// does not turn every request into a round trip.
const (
	denyCooldown  = 5 * time.Second
	errorCooldown = 2 * time.Second
)

// Degraded-mode defaults: the breaker opens after
// DefaultBreakerThreshold consecutive refresh failures, holds for
// DefaultBreakerCooldown before the first half-open probe (doubling per
// failed probe up to DefaultBreakerMaxCooldown), and a fail-open cache
// honours the last granted permit for at most DefaultGrace past its
// genuine expiry.
const (
	DefaultBreakerThreshold   = 3
	DefaultBreakerCooldown    = 2 * time.Second
	DefaultBreakerMaxCooldown = 30 * time.Second
	DefaultGrace              = 30 * time.Second
)

// cacheBreaker configures every cache's breaker, which is the
// scheduler's: one state machine for a path and for a permit backend.
var cacheBreaker = scheduler.BreakerConfig{
	Threshold:   DefaultBreakerThreshold,
	Cooldown:    DefaultBreakerCooldown,
	MaxCooldown: DefaultBreakerMaxCooldown,
}

// RefreshDelay is the cache's refresh schedule: how long after a refresh
// the next one falls due. A failed refresh retries after errorCooldown
// and a denial (ttl ≤ 0) rechecks after denyCooldown. A grant for ttl is
// refreshed at lo + (hi−lo)·jitter() of it, zeros selecting
// DefaultRefreshLo and DefaultRefreshHi; jitter is called once per grant
// and nowhere else. cmd/3golpermitload schedules its simulated devices
// with it.
func RefreshDelay(failed bool, ttl time.Duration, lo, hi float64, jitter func() float64) time.Duration {
	switch {
	case failed:
		return errorCooldown
	case ttl <= 0:
		return denyCooldown
	}
	if lo <= 0 {
		lo = DefaultRefreshLo
	}
	if hi <= 0 {
		hi = DefaultRefreshHi
	}
	if hi < lo {
		hi = lo
	}
	return time.Duration((lo + (hi-lo)*jitter()) * float64(ttl))
}

// Cache is the device-side permit cache. It refreshes on demand when
// the permit has lapsed, and does three things that matter at fleet
// scale:
//
//   - Proactive, TTL-jittered refresh: instead of refreshing at expiry
//     (where every device granted in the same backend restart returns
//     in the same instant), the cache refreshes at a deterministic
//     per-device point inside [RefreshLo, RefreshHi]×TTL. The jitter
//     stream is seeded and replayable (JitterFrac), so tests can prove
//     the desynchronisation bound.
//   - Singleflight: concurrent callers coalesce onto one in-flight
//     refresh instead of issuing one round trip each.
//   - Stale-while-refresh: while a proactive refresh is in flight, the
//     still-valid cached verdict keeps serving, so the refresh never
//     stalls the request path; and a failed proactive refresh keeps
//     the permit until its granted TTL genuinely lapses.
//
// When the backend becomes unreachable the cache enters an explicit
// degraded state behind a per-endpoint circuit breaker (the scheduler's
// Breaker): after DefaultBreakerThreshold consecutive refresh failures
// it stops issuing backend round trips and serves a local degraded
// verdict — fail-open (honour the last granted permit for up to Grace
// past its genuine expiry) or fail-closed (no permit, no onloading; a
// route behind Gate then fails with ErrNotPermitted and the transfer
// falls back to ADSL, exactly the blackout behaviour).
// Half-open probes re-close the breaker the moment the backend answers
// again. A caller that gives up mid-refresh tells nothing about the
// backend, so it leaves the cache and the breaker as they were.
type Cache struct {
	// Fetch performs one backend refresh (BatchClient.Fetch, or a test
	// double). Required.
	Fetch func(ctx context.Context, device, cell string) (permit.Response, error)
	// Device and Cell identify this device and its serving cell.
	Device, Cell string
	// Seed salts the jitter stream; the draw also mixes in Device, so
	// a fleet sharing one configured seed still desynchronises.
	Seed int64
	// RefreshLo and RefreshHi bound the proactive-refresh window as
	// fractions of the granted TTL; zero values select the defaults.
	// Setting both to 1 disables proactive refresh (refresh exactly at
	// expiry — the TTL-boundary tests pin that edge).
	RefreshLo, RefreshHi float64
	// Clock times TTLs; nil selects the system clock.
	Clock clock.Clock
	// Metrics receives cache instrumentation; the zero value records
	// nothing.
	Metrics Metrics
	// Events, when non-nil, records a point per refresh, joining the
	// TraceContext riding the caller's context.
	Events *eventlog.Log

	// FailOpen selects the degraded-mode policy: true keeps honouring
	// the last granted permit for up to Grace past its genuine expiry
	// while the backend is unreachable; false (the default) fails
	// closed — no reachable backend, no onloading.
	FailOpen bool
	// Grace bounds the fail-open stale-permit window, measured from the
	// granted permit's genuine expiry; 0 selects DefaultGrace.
	Grace time.Duration

	mu        sync.Mutex
	haveState bool
	granted   bool
	expires   time.Time
	refreshAt time.Time
	flight    chan struct{} // non-nil while a refresh is in flight
	draws     uint64        // jitter draws so far (the stream position)

	// breaker is open while degraded; the cache never moves it to
	// half-open, so a refresh through an open breaker is the probe.
	breaker     scheduler.Breaker
	probeAt     time.Time // degraded: when the next half-open probe unlocks
	grantExpiry time.Time // genuine expiry of the last granted permit
}

func (c *Cache) grace() time.Duration {
	if c.Grace > 0 {
		return c.Grace
	}
	return DefaultGrace
}

// degradedVerdictLocked is the no-round-trip verdict served while the
// breaker is open: fail-open honours the last granted permit inside its
// grace window (measured from the permit's genuine expiry); everything
// else fails closed. staleGrant reports which branch served.
func (c *Cache) degradedVerdictLocked(now time.Time) (allowed, staleGrant bool) {
	if c.FailOpen && !c.grantExpiry.IsZero() && now.Before(c.grantExpiry.Add(c.grace())) {
		return true, true
	}
	return false, false
}

// Allowed reports whether the device currently holds a valid permit,
// refreshing from the backend as needed. It is safe for concurrent use
// and matches the proxy.Server Admit hook shape. The context rides into
// the refresh, so traces and cancellation propagate to the backend.
func (c *Cache) Allowed(ctx context.Context) bool {
	for {
		c.mu.Lock() //3golvet:allow locksafe — singleflight state machine: every branch unlocks before blocking or returning
		now := clock.Or(c.Clock).Now()
		fresh := c.haveState && now.Before(c.expires)
		due := !c.haveState || !now.Before(c.refreshAt)
		if fresh && !due {
			v := c.granted
			c.mu.Unlock()
			c.Metrics.CacheHits.Inc()
			return v
		}
		if c.breaker.Open() && (now.Before(c.probeAt) || c.flight != nil) {
			// Breaker open: no backend round trip. A still-valid permit
			// keeps serving; otherwise the local degraded verdict does.
			if fresh {
				v := c.granted
				c.mu.Unlock()
				c.Metrics.CacheHits.Inc()
				return v
			}
			v, stale := c.degradedVerdictLocked(now)
			c.mu.Unlock()
			c.Metrics.cacheDegradedServed(stale)
			return v
		}
		if c.flight != nil {
			// Someone else is refreshing. A still-valid permit keeps
			// serving (stale-while-refresh); an expired one waits for
			// the flight's result rather than duplicating it.
			if fresh {
				v := c.granted
				c.mu.Unlock()
				c.Metrics.CacheCoalesced.Inc()
				return v
			}
			flight := c.flight
			c.mu.Unlock()
			c.Metrics.CacheCoalesced.Inc()
			select {
			case <-flight:
				continue // re-read the refreshed state
			case <-ctx.Done():
				return false // fail safe: no permit, no onloading
			}
		}
		flight := make(chan struct{})
		c.flight = flight
		probing := c.breaker.Open() // breaker cooldown elapsed: this call is the half-open probe
		c.mu.Unlock()
		return c.refresh(ctx, flight, fresh, probing)
	}
}

// refresh performs the backend round trip this caller won the right to
// make, installs the result, and releases any coalesced waiters.
// proactive records that the cached permit was still valid when the
// refresh was issued; probing records that this round trip is a
// degraded cache's half-open breaker probe.
func (c *Cache) refresh(ctx context.Context, flight chan struct{}, proactive, probing bool) bool {
	resp, err := c.Fetch(ctx, c.Device, c.Cell)
	if ctx.Err() != nil {
		// This caller gave up: its error is not the backend's. Charging
		// the breaker or caching a refusal would deny every other caller.
		c.mu.Lock()
		defer c.mu.Unlock()
		c.flight = nil
		close(flight)
		return false
	}
	now := clock.Or(c.Clock).Now()
	granted := err == nil && resp.Granted
	c.Metrics.cacheRefreshed(granted, err, proactive)
	if probing {
		c.Metrics.cacheProbed(err == nil)
	}
	tc, _ := eventlog.FromContext(ctx)
	c.Events.Point(tc, "permitplane.cache_refresh",
		"cell", c.Cell, "granted", strconv.FormatBool(granted),
		"ok", strconv.FormatBool(err == nil),
		"proactive", strconv.FormatBool(proactive))

	c.mu.Lock()
	defer c.mu.Unlock()
	defer close(flight)
	c.flight = nil
	if err == nil {
		c.breaker.Success()
	} else if opened, hold := c.breaker.Failure(cacheBreaker); opened {
		c.probeAt = now.Add(time.Duration(hold * float64(time.Second)))
		if !probing {
			c.Metrics.CacheDegraded.Inc()
			c.Events.Point(tc, "permitplane.cache_degraded",
				"cell", c.Cell, "fail_open", strconv.FormatBool(c.FailOpen))
		}
	}
	var ttl time.Duration
	if granted {
		ttl = time.Duration(resp.TTLSeconds * float64(time.Second))
	}
	delay := RefreshDelay(err != nil, ttl, c.RefreshLo, c.RefreshHi, func() float64 {
		n := c.draws
		c.draws++
		return JitterFrac(c.Seed, c.Device, n)
	})
	switch {
	case err != nil && c.haveState && now.Before(c.expires):
		// A failed proactive refresh must not revoke a permit the
		// backend granted for a TTL that has not lapsed; retry shortly
		// and keep serving the cached verdict until real expiry.
		c.refreshAt = now.Add(delay)
		return c.granted
	case err != nil && c.breaker.Open():
		// The degraded verdict is recomputed per call, never cached:
		// the fail-open grace boundary stays exact (honoured one second
		// before it, rejected one second after).
		v, stale := c.degradedVerdictLocked(now)
		c.Metrics.cacheDegradedServed(stale)
		return v
	}
	c.haveState = true
	c.granted = granted
	c.refreshAt = now.Add(delay)
	c.expires = c.refreshAt
	if granted && ttl > 0 {
		c.expires = now.Add(ttl)
		c.grantExpiry = c.expires
	}
	return c.granted
}
