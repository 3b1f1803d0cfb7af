package netem

import (
	"context"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"threegol/internal/clock"
	"threegol/internal/freelist"
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
	// before the first byte.
	Latency time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter) per
	// maxChunk bytes carried, whatever sizes the caller writes in.
	Jitter time.Duration
	// StallProb is the probability, per maxChunk bytes carried, of a
	// stall (TCP loss recovery on a wireless hop); each stall delays the
	// connection by StallDelay.
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

// quantum is the shortest sleep a shaper asks of its clock: the host's
// timer floor (a shorter time.Sleep takes about this long anyway). The
// price is granularity: bytes are released in bursts of rate × quantum.
const quantum = time.Millisecond

// maxChunk is the unit of the byte clock: one jitter/stall draw per
// maxChunk bytes carried. It is also the smallest step a direction takes.
const maxChunk = 16 * 1024

// MaxRead is the largest step a direction takes: the most a Read offers the
// kernel, or a Write or ReadFrom hands it, in one call, and the size of
// the buffers copies above a shaped hop go through (Buffer): a link too
// fast to bind inside a timer tick moves a body in pieces this large
// instead of paying a syscall per maxChunk.
const MaxRead = 256 * 1024

// bufs keeps sixteen buffers (4 MB): more copies at once than an
// emulated home's uploads, phone proxies and player reach together.
var bufs = freelist.List[*[MaxRead]byte]{Name: "netem buffers", Keep: 16 * MaxRead}

// Buffer returns a MaxRead-byte buffer from the free list, or a new one
// when the list is empty. Hand it back with Release once the copy ends.
func Buffer() *[MaxRead]byte {
	if buf, ok := bufs.Get(MaxRead); ok {
		return buf
	}
	return new([MaxRead]byte)
}

// Release returns a buffer from Buffer to the free list (a second
// release panics); a full list drops it.
func Release(buf *[MaxRead]byte) { bufs.Put(buf, MaxRead) }

// shaper paces one direction of one connection, clocked by the bytes it
// carries, not by the calls that carry them: the limiters are charged
// exactly on every call, stochastic delay is drawn once per maxChunk
// bytes, and time owed — limiter debt plus delay not yet slept, the
// one-way latency first — is carried forward until it amounts to a
// quantum. Skipping a sleep loses nothing: the buckets' debt is the
// ledger, and the next call is quoted the rest.
type shaper struct {
	clk        clock.Clock
	limiters   []*Limiter
	jitter     time.Duration
	stallProb  float64
	stallDelay time.Duration

	mu      sync.Mutex
	seed    int64
	rng     *rand.Rand    // seeded from seed on the first draw
	covered int           // bytes the latest draw still covers
	delay   time.Duration // latency and drawn delay not yet slept
}

func newShaper(s Shape, scale float64, seed int64, clk clock.Clock) *shaper {
	sh := &shaper{
		clk:        clk,
		jitter:     time.Duration(float64(s.Jitter) / scale),
		stallProb:  s.StallProb,
		stallDelay: time.Duration(float64(s.StallDelay) / scale),
		seed:       seed,
		delay:      time.Duration(float64(s.Latency) / scale), // paid once per connection
	}
	if s.Rate > 0 {
		sh.limiters = append(sh.limiters, NewLimiterClock(s.Rate*scale, 0, clk))
	}
	sh.limiters = append(sh.limiters, s.Shared...)
	return sh
}

// pace charges n bytes to the link and blocks once a quantum is owed.
func (s *shaper) pace(n int) {
	if s == nil {
		return
	}
	bits := float64(n) * 8
	var debt time.Duration
	for _, l := range s.limiters {
		if d := l.Reserve(bits); d > debt {
			debt = d
		}
	}
	if wait := debt + s.owedDelay(n, debt); wait >= quantum {
		s.clk.Sleep(wait)
	}
}

// step is the most this direction carries in one call: what its
// slowest limiter moves in a quantum, no less than maxChunk and no more
// than MaxRead. A link that binds within a quantum is thus carried in
// maxChunk pieces and sleeps as often as ever, where one flat large
// step would be paid for in a single long sleep; a link that cannot
// bind is carried MaxRead at a time. It follows SetRate: the limiters
// are asked on every call.
func (s *shaper) step() int {
	if s == nil {
		return MaxRead
	}
	limit := float64(MaxRead)
	for _, l := range s.limiters {
		if r := l.Rate(); r > 0 {
			limit = min(limit, r/8*quantum.Seconds())
		}
	}
	return max(maxChunk, int(limit))
}

// owedDelay advances the byte clock by n, drawing jitter and the stall
// penalty for every maxChunk boundary crossed, and returns the delay to
// sleep now: all that is owed once it and debt amount to a quantum, none
// until then. The rng is drawn under the shaper's lock; the sleep is the
// caller's, outside it.
func (s *shaper) owedDelay(n int, debt time.Duration) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jitter > 0 || s.stallProb > 0 { // most connections never need the rng
		if s.rng == nil {
			s.rng = rand.New(rand.NewSource(s.seed))
		}
		for s.covered -= n; s.covered < 0; s.covered += maxChunk {
			if s.jitter > 0 {
				s.delay += time.Duration(s.rng.Int63n(int64(s.jitter)))
			}
			if s.stallProb > 0 && s.rng.Float64() < s.stallProb {
				s.delay += s.stallDelay
			}
		}
	}
	if debt+s.delay < quantum {
		return 0
	}
	d := s.delay
	s.delay = 0
	return d
}

// Conn is a net.Conn whose reads and writes are shaped.
type Conn struct {
	net.Conn
	down, up *shaper
}

// Read shapes the server→client direction, in steps of the link's
// step.
func (c *Conn) Read(p []byte) (int, error) {
	if len(p) > maxChunk {
		p = p[:min(len(p), c.down.step())]
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.down.pace(n)
	}
	return n, err
}

// Write shapes the client→server direction, in steps of the link's
// step.
func (c *Conn) Write(p []byte) (int, error) {
	step := maxChunk
	if len(p) > maxChunk {
		step = c.up.step()
	}
	var total int
	for len(p) > 0 {
		chunk := p[:min(len(p), step)]
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

// ReadFrom copies r to the client→server direction until EOF, one step
// per write through a buffer from the free list, paced as Write paces.
// It is the copy net/http makes of a request body with a declared
// length, which would otherwise allocate 32 KB per request; a chunked
// body goes through Write.
func (c *Conn) ReadFrom(r io.Reader) (int64, error) {
	buf := Buffer()
	defer Release(buf)
	var total int64
	for {
		n, err := r.Read(buf[:c.up.step()])
		if n > 0 {
			c.up.pace(n)
			m, werr := c.Conn.Write(buf[:n])
			total += int64(m)
			if werr != nil {
				return total, werr
			}
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
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

// upstreamBuffer is the socket buffer a shaped hop gets in its upstream
// direction: the send buffer of the connections of a Dialer whose Up is
// rate-limited, the receive buffer of a BoundUpstream listener's.
// Loopback autotunes both to megabytes and swallows a photo whole, so a
// request cancelled early is already complete and queued. The kernel
// reserves about twice the figure per socket. Downstream is left alone:
// there the receiver paces, and a small window only costs CPU.
const upstreamBuffer = 4 * maxChunk

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
	if tc, ok := conn.(*net.TCPConn); ok && (d.Pipe.Up.Rate > 0 || len(d.Pipe.Up.Shared) > 0) {
		_ = tc.SetWriteBuffer(upstreamBuffer) // a refusal loses only the bound
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

// BoundUpstream returns ln with the receive buffer of every TCP
// connection it accepts held to upstreamBuffer (64 KB; the kernel
// reserves about twice that per socket): the far end of a hop
// whose near end is a Dialer. Connections are otherwise untouched.
func BoundUpstream(ln net.Listener) net.Listener { return boundedListener{ln} }

type boundedListener struct{ net.Listener }

func (l boundedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(upstreamBuffer) // a refusal loses only the bound
	}
	return conn, err
}
