package netem

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"time"

	"threegol/internal/clock"
)

// Shape describes one direction of an emulated link.
type Shape struct {
	// Rate is the dedicated capacity of this direction in bits/s
	// (0 = unlimited). A private limiter is created for it.
	Rate float64
	// Shared lists additional capacities this direction contends for
	// (e.g. the Wi-Fi BSS cap shared by every device in the home, or a
	// phone's radio shared by all flows through its proxy).
	Shared []*Limiter
	// Latency is the one-way propagation delay added per connection
	// before the first byte (and per chunk jitter below).
	Latency time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter) per chunk.
	Jitter time.Duration
	// StallProb is the per-chunk probability of a stall (TCP loss
	// recovery on a wireless hop); each stall sleeps StallDelay.
	StallProb  float64
	StallDelay time.Duration
}

// Pipe bundles both directions plus the global time scale.
type Pipe struct {
	// Down shapes bytes read by the wrapped side (server→client), Up
	// shapes bytes written (client→server).
	Down, Up Shape
	// TimeScale > 1 accelerates the emulation: rates ×S, delays ÷S.
	// Zero means 1 (real time).
	TimeScale float64
	// Clock paces the emulated link; nil selects the system clock.
	Clock clock.Clock
}

func (p Pipe) scale() float64 {
	if p.TimeScale <= 0 {
		return 1
	}
	return p.TimeScale
}

// shaper paces one direction of one connection.
type shaper struct {
	clk        clock.Clock
	limiters   []*Limiter
	latency    time.Duration
	jitter     time.Duration
	stallProb  float64
	stallDelay time.Duration

	mu       sync.Mutex
	seed     int64
	rng      *rand.Rand // seeded from seed on the first draw
	latentcy sync.Once  // pays the one-way latency once per connection
}

func newShaper(s Shape, scale float64, seed int64, clk clock.Clock) *shaper {
	sh := &shaper{
		clk:        clk,
		latency:    time.Duration(float64(s.Latency) / scale),
		jitter:     time.Duration(float64(s.Jitter) / scale),
		stallProb:  s.StallProb,
		stallDelay: time.Duration(float64(s.StallDelay) / scale),
		seed:       seed,
	}
	if s.Rate > 0 {
		sh.limiters = append(sh.limiters, NewLimiter(s.Rate*scale, 0))
	}
	sh.limiters = append(sh.limiters, s.Shared...)
	return sh
}

// pace blocks until n bytes may pass.
func (s *shaper) pace(n int) {
	if s == nil {
		return
	}
	s.latentcy.Do(func() {
		if s.latency > 0 {
			s.clk.Sleep(s.latency)
		}
	})
	bits := float64(n) * 8
	var wait time.Duration
	for _, l := range s.limiters {
		if d := l.Reserve(bits); d > wait {
			wait = d
		}
	}
	wait += s.stochasticDelay()
	if wait > 0 {
		s.clk.Sleep(wait)
	}
}

// stochasticDelay draws the per-chunk jitter and stall penalty under the
// shaper's lock (the rng is not safe for concurrent use).
func (s *shaper) stochasticDelay() time.Duration {
	if s.jitter <= 0 && s.stallProb <= 0 {
		return 0 // nothing to draw: most connections never need the rng
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	var d time.Duration
	if s.jitter > 0 {
		d += time.Duration(s.rng.Int63n(int64(s.jitter)))
	}
	if s.stallProb > 0 && s.rng.Float64() < s.stallProb {
		d += s.stallDelay
	}
	return d
}

// Conn is a net.Conn whose reads and writes are shaped.
type Conn struct {
	net.Conn
	down, up *shaper
}

// maxChunk bounds the bytes charged per pacing step so large writes are
// smoothed rather than sleeping once for a whole buffer.
const maxChunk = 16 * 1024

// Read shapes the server→client direction.
func (c *Conn) Read(p []byte) (int, error) {
	if len(p) > maxChunk {
		p = p[:maxChunk]
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.down.pace(n)
	}
	return n, err
}

// Write shapes the client→server direction.
func (c *Conn) Write(p []byte) (int, error) {
	var total int
	for len(p) > 0 {
		chunk := p
		if len(chunk) > maxChunk {
			chunk = chunk[:maxChunk]
		}
		c.up.pace(len(chunk))
		n, err := c.Conn.Write(chunk)
		total += n
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}

// WrapConn shapes an existing connection. Each call derives fresh
// per-connection shapers (private rate limiters are not shared across
// connections; use Shape.Shared for contended capacity).
func WrapConn(conn net.Conn, pipe Pipe, seed int64) *Conn {
	scale := pipe.scale()
	clk := clock.Or(pipe.Clock)
	return &Conn{
		Conn: conn,
		down: newShaper(pipe.Down, scale, seed, clk),
		up:   newShaper(pipe.Up, scale, seed+1, clk),
	}
}

// Dialer dials through an emulated link. The zero value dials unshaped.
type Dialer struct {
	Pipe Pipe
	// Seed makes jitter/stall sequences reproducible; each connection
	// derives its own sub-seed.
	Seed int64

	mu   sync.Mutex
	next int64
}

// Dial connects and wraps the connection in the dialer's pipe shape.
func (d *Dialer) Dial(network, addr string) (net.Conn, error) {
	return d.DialContext(context.Background(), network, addr)
}

// DialContext connects with a context and wraps the connection.
func (d *Dialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	var nd net.Dialer
	conn, err := nd.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return WrapConn(conn, d.Pipe, d.nextSeed()), nil
}

// nextSeed derives the next per-connection sub-seed.
func (d *Dialer) nextSeed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	seed := d.Seed + d.next
	d.next += 2
	return seed
}

// Listener wraps accepted connections in a pipe shape. Down/Up are from
// the *dialing* peer's perspective mirrored: bytes the server writes are
// shaped by Pipe.Down (they travel "down" to the client).
type Listener struct {
	net.Listener
	Pipe Pipe
	Seed int64

	mu   sync.Mutex
	next int64
}

// Accept waits for a connection and wraps it.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	seed := l.nextSeed()
	// From the server side, writes head toward the client (down) and
	// reads arrive from the client (up): swap relative to WrapConn.
	scale := l.Pipe.scale()
	clk := clock.Or(l.Pipe.Clock)
	return &Conn{
		Conn: conn,
		down: newShaper(l.Pipe.Up, scale, seed, clk),     // server reads = client's up
		up:   newShaper(l.Pipe.Down, scale, seed+1, clk), // server writes = client's down
	}, nil
}

// nextSeed derives the next per-connection sub-seed.
func (l *Listener) nextSeed() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	seed := l.Seed + l.next
	l.next += 2
	return seed
}
