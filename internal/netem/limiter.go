// Package netem shapes real TCP connections to emulate the paper's
// physical substrate: ADSL access links, the home Wi-Fi LAN, and HSPA
// uplinks/downlinks. The prototype components (device proxy, HLS-aware
// client proxy, multipath scheduler) run unmodified over loopback TCP;
// netem inserts the rate limits, propagation delays and wireless rate
// variability they would see in deployment.
//
// Every shape carries a TimeScale: with TimeScale S, configured rates are
// multiplied by S and delays divided by S, so an experiment that would
// take 127 wall-clock seconds on a real 2 Mbps ADSL line replays in
// 127/S seconds with identical ratios. Reported durations are then
// multiplied back by S at the harness level.
package netem

import (
	"fmt"
	"sync"
	"time"

	"threegol/internal/clock"
)

// Limiter is a token-bucket rate limiter shared by any number of
// connections; it emulates a capacity that several flows contend for
// (the Wi-Fi BSS goodput cap, one phone's 3G radio, the ADSL line).
// The zero value is unusable; construct with NewLimiter.
type Limiter struct {
	clk    clock.Clock
	mu     sync.Mutex
	rate   float64 // bits per second (already time-scaled by the owner)
	bucket float64 // available bits; may go negative (debt)
	burst  float64 // bucket ceiling in bits, where bankSeconds of rate is not more
	last   time.Time
}

// DefaultBurst is the default token-bucket depth: deep enough to keep
// pipelines busy, shallow enough that rate changes take effect quickly.
// A link scaled past 131 Mbit/s banks bankSeconds of its rate instead.
const DefaultBurst = 32 * 8 * 1024 // 32 KB in bits

// NewLimiter creates a limiter on the system clock. rate is in bits/s;
// burst ≤ 0 selects DefaultBurst. A rate ≤ 0 means unlimited.
func NewLimiter(rate, burst float64) *Limiter {
	return NewLimiterClock(rate, burst, clock.System)
}

// NewLimiterClock creates a limiter on an injected clock, for tests that
// pace virtual time.
func NewLimiterClock(rate, burst float64, clk clock.Clock) *Limiter {
	if burst <= 0 {
		burst = DefaultBurst
	}
	clk = clock.Or(clk)
	return &Limiter{clk: clk, rate: rate, bucket: burst, burst: burst, last: clk.Now()}
}

// SetRate changes the limiter's rate (bits/s). Safe for concurrent use;
// rate processes call this to emulate wireless variability.
func (l *Limiter) SetRate(rate float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refill(l.clk.Now())
	l.rate = rate
}

// Rate returns the current rate in bits/s.
func (l *Limiter) Rate() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rate
}

// bankSeconds is the least idle time a bucket can bank, whatever its
// burst: a sleep overshoots by up to a quantum here, and a bucket too
// shallow to hold that loses it on every sleep (32 KB is 0.3 ms of a
// 20 Mbit/s line at TimeScale 40). The price: after an idle spell two
// quanta of the scaled rate, 2 ms × TimeScale of link time, go unpaced.
const bankSeconds = float64(2*quantum) / float64(time.Second)

// refill adds tokens accrued since the last update, up to the burst or
// bankSeconds of the rate, whichever is more. Caller holds mu.
func (l *Limiter) refill(now time.Time) {
	if l.rate > 0 {
		l.bucket += l.rate * now.Sub(l.last).Seconds()
		if ceiling := max(l.burst, l.rate*bankSeconds); l.bucket > ceiling {
			l.bucket = ceiling
		}
	}
	l.last = now
}

// Reserve deducts bits from the bucket and returns how long the caller
// must wait before proceeding (zero when tokens were available). The
// bucket may go into debt, which paces subsequent callers.
func (l *Limiter) Reserve(bits float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rate <= 0 { // unlimited
		return 0
	}
	now := l.clk.Now()
	l.refill(now)
	l.bucket -= bits
	if l.bucket >= 0 {
		return 0
	}
	return time.Duration(-l.bucket / l.rate * float64(time.Second))
}

// String implements fmt.Stringer for diagnostics.
func (l *Limiter) String() string {
	return fmt.Sprintf("limiter(%.0f bps)", l.Rate())
}
