package netem

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// stepClock is a virtual clock that only Sleep advances; it counts the
// sleeps it is asked for and keeps the shortest.
type stepClock struct {
	mu       sync.Mutex
	now      time.Time
	sleeps   int
	slept    time.Duration
	shortest time.Duration
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *stepClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	if c.sleeps == 0 || d < c.shortest {
		c.shortest = d
	}
	c.sleeps++
	c.slept += d
}

// discardConn is a net.Conn that accepts every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// The loc1 phone uplink of the bench's upload workload.
const (
	hspaUp    = 1.22e6
	hspaScale = 150
	photo     = 3 << 20
)

// photoIdeal is the link time of one photo at the configured rate.
var photoIdeal = time.Duration(math.Round(photo * 8 / (hspaUp * hspaScale) * float64(time.Second)))

// writeIn sends total bytes through w in the repeating pattern sizes.
func writeIn(t *testing.T, w io.Writer, total int, sizes []int) {
	t.Helper()
	buf := make([]byte, maxChunk)
	for i, sent := 0, 0; sent < total; i++ {
		n := min(sizes[i%len(sizes)], total-sent)
		if _, err := w.Write(buf[:n]); err != nil {
			t.Fatal(err)
		}
		sent += n
	}
}

// Pacing is clocked by bytes carried, not by Write calls: the same
// bytes take the same virtual time, a bounded number of sleeps and the
// same stochastic draws whatever sizes they are written in.
func TestPacingIndependentOfWriteSize(t *testing.T) {
	const seed = 11
	draws := (photo + maxChunk - 1) / maxChunk
	var slept []time.Duration
	for _, tc := range []struct {
		name  string
		sizes []int
	}{
		{"4K", []int{4 << 10}},
		{"16K", []int{16 << 10}},
		{"net/http 4+16+12K", []int{4 << 10, 16 << 10, 12 << 10}},
		{"odd", []int{1, 4097, 16 << 10, 333}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &stepClock{now: time.Unix(0, 0)}
			pipe, _, _ := HSPAPipe(1.83e6, hspaUp, hspaScale)
			pipe.Clock = clk
			pipe.Up.Shared = []*Limiter{NewLimiterClock(hspaUp*hspaScale, 0, clk)}
			c := WrapConn(discardConn{}, pipe, seed)
			writeIn(t, c, photo, tc.sizes)

			if off := math.Abs(float64(clk.slept-photoIdeal)) / float64(photoIdeal); off > 0.02 {
				t.Errorf("slept %v of virtual time, ideal %v: off by %.1f %%", clk.slept, photoIdeal, 100*off)
			}
			if most := int(photoIdeal/quantum) + 2; clk.sleeps > most {
				t.Errorf("%d sleeps for %v of link time, want at most %d (one per quantum)", clk.sleeps, photoIdeal, most)
			}
			// The shaper's rng must stand where a reference that drew
			// once per maxChunk stands.
			ref := rand.New(rand.NewSource(seed + 1)) // WrapConn seeds Up with seed+1
			jitter := int64(float64(pipe.Up.Jitter) / hspaScale)
			for i := 0; i < draws; i++ {
				ref.Int63n(jitter)
				ref.Float64()
			}
			if got, want := c.up.rng.Int63(), ref.Int63(); got != want {
				t.Errorf("rng is not %d draws in: next value %d, want %d", draws, got, want)
			}
			t.Logf("slept %v in %d sleeps (ideal %v)", clk.slept, clk.sleeps, photoIdeal)
			slept = append(slept, clk.slept)
		})
	}
	for _, s := range slept {
		if d := s - slept[0]; d < -quantum || d > quantum {
			t.Errorf("virtual time differs by write size: %v", slept)
			break
		}
	}
}

// offerConn is a net.Conn that fills every buffer it is offered and
// records the sizes.
type offerConn struct {
	net.Conn
	offered []int
}

func (c *offerConn) Read(p []byte) (int, error) {
	c.offered = append(c.offered, len(p))
	return len(p), nil
}

// readIn reads total bytes from c into a buffer of size ask.
func readIn(t *testing.T, c *Conn, total, ask int) {
	t.Helper()
	buf := make([]byte, ask)
	for got := 0; got < total; {
		n, err := c.Read(buf[:min(ask, total-got)])
		if err != nil {
			t.Fatal(err)
		}
		got += n
	}
}

// The loc1 downlinks of the bench's shaped workloads, unscaled.
const (
	adslDown = 6.48e6
	hspaDown = 1.83e6
)

// A shaper never asks its clock for less than a quantum, which is what a
// shorter time.Sleep costs anyway: a hop's one-way latency is owed like
// limiter debt and slept with it. At TimeScale 150 the Wi-Fi (13 µs),
// ADSL (167 µs) and HSPA (467 µs) latencies are each far below a
// quantum, and slept alone each would cost about one. The latency is
// still paid: each direction sleeps its link time plus its latency, less
// at most what its bucket banks and a quantum not yet owed.
func TestNoSleepShorterThanQuantum(t *testing.T) {
	const (
		adslUp  = 0.83e6
		request = 300 // a request line and its headers
	)
	for _, scale := range []float64{20, 150} {
		adsl, _, _ := ADSLPipe(adslDown, adslUp, scale)
		hspa, _, _ := HSPAPipe(hspaDown, hspaUp, scale)
		for _, tc := range []struct {
			name string
			pipe Pipe
		}{
			{"wifi", WiFiPipe(NewWiFiLimiter(WiFiNGoodput, scale), scale)},
			{"adsl", adsl},
			{"hspa", hspa},
		} {
			for _, up := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/up=%t/x%g", tc.name, up, scale), func(t *testing.T) {
					clk := &stepClock{now: time.Unix(0, 0)}
					pipe := tc.pipe
					pipe.Clock = clk
					sh := &pipe.Down
					if up {
						sh = &pipe.Up
					}
					rate := sh.Shared[0].Rate()
					sh.Shared = []*Limiter{NewLimiterClock(rate, 0, clk)}
					if up {
						c := WrapConn(discardConn{}, pipe, 3)
						writeIn(t, c, request, []int{request})
						writeIn(t, c, photo, []int{16 << 10})
					} else {
						c := WrapConn(&offerConn{}, pipe, 3)
						readIn(t, c, request, request)
						readIn(t, c, photo, 16<<10)
					}
					if clk.sleeps == 0 || clk.shortest < quantum {
						t.Fatalf("%d sleeps, shortest %v: want every sleep at least %v", clk.sleeps, clk.shortest, quantum)
					}
					latency := time.Duration(float64(sh.Latency) / scale)
					ideal := time.Duration(float64(request+photo) * 8 / rate * float64(time.Second))
					bank := time.Duration(max(DefaultBurst, rate*bankSeconds) / rate * float64(time.Second))
					if floor := ideal + latency - bank - quantum; clk.slept < floor {
						t.Errorf("slept %v, want at least %v (link %v + latency %v - bank %v - a quantum)", clk.slept, floor, ideal, latency, bank)
					}
				})
			}
		}
	}
}

// A link that binds inside a quantum is read exactly as before: at
// vod_shaped's TimeScale the ADSL line moves 16.2 KB per quantum and a
// phone 4.6 KB, so whatever buffer the caller brings the kernel is
// offered maxChunk, and the bytes take the same virtual time in the same
// sleeps and the same draws. At the upload workload's TimeScale a phone's
// downlink moves 34 KB per quantum and is read that much at a time: the
// same link time within a quantum, still at most one sleep per quantum,
// the same draws.
func TestReadPacingIndependentOfReadSize(t *testing.T) {
	const (
		seed  = 11
		total = 3 << 20
	)
	draws := total / maxChunk
	for _, link := range []struct {
		name  string
		scale float64
		pipe  func(scale float64) (Pipe, *Limiter, *Limiter)
		rate  float64
		step  int // the link's step: what its slowest limiter moves in a quantum
	}{
		{"ADSL at 20", 20, func(s float64) (Pipe, *Limiter, *Limiter) { return ADSLPipe(adslDown, 0.83e6, s) }, adslDown, maxChunk},
		{"HSPA at 20", 20, func(s float64) (Pipe, *Limiter, *Limiter) { return HSPAPipe(hspaDown, hspaUp, s) }, hspaDown, maxChunk},
		{"HSPA at 150", 150, func(s float64) (Pipe, *Limiter, *Limiter) { return HSPAPipe(hspaDown, hspaUp, s) }, hspaDown, 34_312},
	} {
		t.Run(link.name, func(t *testing.T) {
			rate := link.rate * link.scale
			ideal := time.Duration(total * 8 / rate * float64(time.Second))
			var first *stepClock
			for _, ask := range []int{maxChunk, 32 << 10, MaxRead, 1 << 20} {
				clk := &stepClock{now: time.Unix(0, 0)}
				pipe, _, _ := link.pipe(link.scale)
				pipe.Clock = clk
				pipe.Down.Shared = []*Limiter{NewLimiterClock(rate, 0, clk)}
				pipe.Down.Latency = 0
				under := &offerConn{}
				c := WrapConn(under, pipe, seed)
				readIn(t, c, total, ask)

				for _, n := range under.offered {
					if n > link.step {
						t.Fatalf("asked for %d: the kernel was offered %d bytes, want at most %d", ask, n, link.step)
					}
				}
				if off := math.Abs(float64(clk.slept-ideal)) / float64(ideal); off > 0.02 {
					t.Errorf("asked for %d: slept %v of virtual time, ideal %v: off by %.1f %%", ask, clk.slept, ideal, 100*off)
				}
				if most := int(ideal/quantum) + 2; clk.sleeps > most {
					t.Errorf("asked for %d: %d sleeps for %v of link time, want at most %d", ask, clk.sleeps, ideal, most)
				}
				switch {
				case first == nil:
					first = clk
				case link.step == maxChunk && (clk.slept != first.slept || clk.sleeps != first.sleeps):
					t.Errorf("asked for %d: slept %v in %d sleeps; in maxChunk reads %v in %d", ask, clk.slept, clk.sleeps, first.slept, first.sleeps)
				case clk.slept-first.slept > quantum || first.slept-clk.slept > quantum:
					t.Errorf("asked for %d: slept %v; in maxChunk reads %v", ask, clk.slept, first.slept)
				}
				if pipe.Down.Jitter == 0 {
					continue // ADSL draws nothing
				}
				ref := rand.New(rand.NewSource(seed)) // WrapConn seeds Down with seed
				jitter := int64(float64(pipe.Down.Jitter) / link.scale)
				for i := 0; i < draws; i++ {
					ref.Int63n(jitter)
					ref.Float64()
				}
				if got, want := c.down.rng.Int63(), ref.Int63(); got != want {
					t.Errorf("asked for %d: rng is not %d draws in: next value %d, want %d", ask, draws, got, want)
				}
			}
		})
	}
}

// The size of a read step is what the slowest limiter of the direction
// moves in a quantum, between maxChunk and MaxRead, and it follows
// SetRate: a link that cannot bind inside a timer tick is not read a
// syscall per maxChunk.
func TestReadSizeFollowsTheLink(t *testing.T) {
	offeredFor := func(c *Conn, under *offerConn, ask int) int {
		t.Helper()
		if _, err := c.Read(make([]byte, ask)); err != nil {
			t.Fatal(err)
		}
		return under.offered[len(under.offered)-1]
	}
	clk := &stepClock{now: time.Unix(0, 0)}
	wrap := func(down Shape) (*Conn, *offerConn) {
		under := &offerConn{}
		return WrapConn(under, Pipe{Down: down, Clock: clk}, 1), under
	}
	const big = 1 << 20
	for _, tc := range []struct {
		name string
		down Shape
		want int
	}{
		{"unlimited", Shape{}, MaxRead},
		{"unlimited shared limiter", Shape{Shared: []*Limiter{NewLimiterClock(0, 0, clk)}}, MaxRead},
		{"1e18 bit/s (the unshaped bench home)", Shape{Shared: []*Limiter{NewLimiterClock(1e18, 0, clk)}}, MaxRead},
		{"Wi-Fi n at TimeScale 20", Shape{Shared: []*Limiter{NewLimiterClock(WiFiNGoodput*20, 0, clk)}}, MaxRead},
		{"ADSL at TimeScale 20", Shape{Shared: []*Limiter{NewLimiterClock(adslDown*20, 0, clk)}}, maxChunk},
		{"HSPA at TimeScale 20", Shape{Rate: hspaDown * 20}, maxChunk},
		// At the upload workload's scale a phone's downlink moves more
		// than maxChunk in a quantum (274.5 Mbit/s × 1 ms), and is read a
		// quantum at a time.
		{"HSPA at TimeScale 150", Shape{Rate: hspaDown * 150}, 34_312},
		{"the slowest limiter decides", Shape{Rate: 1e18, Shared: []*Limiter{NewLimiterClock(1e18, 0, clk), NewLimiterClock(400e6, 0, clk)}}, 50_000},
	} {
		c, under := wrap(tc.down)
		if got := offeredFor(c, under, big); got != tc.want {
			t.Errorf("%s: a %d-byte read was offered to the kernel as %d bytes, want %d", tc.name, big, got, tc.want)
		}
		if got := offeredFor(c, under, 4<<10); got != 4<<10 {
			t.Errorf("%s: a 4 KB read was offered as %d bytes", tc.name, got)
		}
	}

	radio := NewLimiterClock(1e18, 0, clk)
	c, under := wrap(Shape{Shared: []*Limiter{radio}})
	for _, step := range []struct {
		rate float64
		want int
	}{{1e18, MaxRead}, {adslDown * 20, maxChunk}, {400e6, 50_000}, {0, MaxRead}} {
		radio.SetRate(step.rate)
		if got := offeredFor(c, under, big); got != step.want {
			t.Errorf("after SetRate(%g) the next read was offered %d bytes, want %d", step.rate, got, step.want)
		}
	}
}

// A bucket banks a late wake-up of up to two quanta whatever its burst,
// and no more than the larger of that and its burst however long it
// idles.
func TestLimiterBanksTwoQuanta(t *testing.T) {
	const fast = 1e9 // two quanta are 2e6 bits, eight DefaultBursts
	for _, tc := range []struct {
		name        string
		rate, burst float64
		ceiling     float64 // bits
	}{
		{"fast link, default burst", fast, 0, 2e6},
		{"fast link, deeper burst", fast, 4e6, 4e6},
		{"slow link", 1e6, 0, DefaultBurst},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &stepClock{now: time.Unix(0, 0)}
			l := NewLimiterClock(tc.rate, tc.burst, clk)
			l.Reserve(max(tc.burst, DefaultBurst)) // the initial burst is spent
			// Woken 1.5 quanta late, the caller finds that time's bits.
			clk.Sleep(3 * quantum / 2)
			late := min(tc.rate*1.5e-3, tc.ceiling)
			if d := l.Reserve(late); d != 0 {
				t.Errorf("owed %v for the bits of a 1.5 ms overshoot", d)
			}
			// A long idle banks the ceiling, and the next bits are owed in full.
			clk.Sleep(time.Second)
			if d := l.Reserve(tc.ceiling); d != 0 {
				t.Errorf("owed %v for %.0f bits after an idle second", d, tc.ceiling)
			}
			owed := time.Duration(1e5 / tc.rate * float64(time.Second))
			if d := l.Reserve(1e5); d != owed {
				t.Errorf("owed %v for 1e5 bits past the ceiling, want %v", d, owed)
			}
		})
	}
}

// discardServer accepts connections through ln and discards what they
// send.
func discardServer(t *testing.T, ln net.Listener) {
	t.Helper()
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(io.Discard, c)
			}()
		}
	}()
}

// The wall-clock ratchet on the byte clock (scripts/check.sh runs it
// without the race detector): small writes over a fast-scaled phone
// uplink deliver the configured rate. Call-clocked pacing took 6× ideal
// here, one timer-floor sleep per 4 KB. The fastest of up to three
// back-to-back trials is judged: a pacing fault slows every trial, a
// busy host one of them.
func TestLinkRateBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock budget; the race detector's per-byte cost is not link time")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	discardServer(t, ln)
	trial := func() time.Duration {
		pipe, _, _ := HSPAPipe(1.83e6, hspaUp, hspaScale)
		d := &Dialer{Pipe: pipe, Seed: 7}
		c, err := d.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		start := time.Now()
		writeIn(t, c, photo, []int{4 << 10})
		return time.Since(start)
	}
	var took []time.Duration
	for len(took) < 3 {
		took = append(took, trial())
		if took[len(took)-1] <= photoIdeal*5/4 {
			t.Logf("3 MB in 4 KB writes took %v, ideal %v (%.2f of the configured rate)",
				took, photoIdeal, float64(photoIdeal)/float64(took[len(took)-1]))
			return
		}
	}
	t.Errorf("3 MB in 4 KB writes took %v in three trials, budget 1.25 × ideal %v", took, photoIdeal)
}

// A hop's upstream direction holds a bounded number of bytes: a sender
// cannot get further ahead of a receiver that has stopped reading than
// the two sockets' buffers, each of which the kernel sizes at about
// twice upstreamBuffer. An unshaped Dialer is left to the kernel.
func TestUpstreamInFlightIsBounded(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := BoundUpstream(inner)
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c // held open, never read
	}()
	d := &Dialer{Pipe: Pipe{Up: Shape{Rate: 1e10}}} // shaped, and out of the way
	c, err := d.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer func() { (<-accepted).Close() }()

	buf := make([]byte, 4<<10)
	swallowed := 0
	for swallowed <= photo { // far past any bound: no need to go on
		c.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
		n, err := c.Write(buf)
		swallowed += n
		if err != nil {
			break
		}
	}
	if limit := 2 * 2 * upstreamBuffer; swallowed > limit {
		t.Errorf("a stopped receiver's hop swallowed %d bytes, want at most %d", swallowed, limit)
	}
}

// writeRecorder is a net.Conn that accepts every write and records its
// size.
type writeRecorder struct {
	net.Conn
	sizes []int
}

func (c *writeRecorder) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return len(p), nil
}

// onlyReader hides a source's WriteTo, as the io.LimitedReader net/http
// wraps a declared-length request body in does.
type onlyReader struct{ io.Reader }

// hspaUpStep is what loc1's phone uplink moves in a quantum at the
// upload workload's TimeScale (183 Mbit/s × 1 ms): the step of its
// writes.
const hspaUpStep = 22_875

// ReadFrom, the copy net/http makes of a declared-length request body,
// is paced as Write is: 3 MB over loc1's phone uplink at TimeScale 150
// takes the same virtual time, in as few sleeps, with the same draws as
// the same bytes written 4 KB at a time, and the kernel is never handed
// more than one step.
func TestReadFromPacedAsWrite(t *testing.T) {
	const seed = 11
	run := func(send func(c *Conn)) (*stepClock, *writeRecorder, *Conn) {
		clk := &stepClock{now: time.Unix(0, 0)}
		pipe, _, _ := HSPAPipe(1.83e6, hspaUp, hspaScale)
		pipe.Clock = clk
		pipe.Up.Shared = []*Limiter{NewLimiterClock(hspaUp*hspaScale, 0, clk)}
		under := &writeRecorder{}
		c := WrapConn(under, pipe, seed)
		send(c)
		return clk, under, c
	}
	wclk, _, wc := run(func(c *Conn) { writeIn(t, c, photo, []int{4 << 10}) })
	rclk, under, rc := run(func(c *Conn) {
		if n, err := c.ReadFrom(onlyReader{bytes.NewReader(make([]byte, photo))}); err != nil || n != photo {
			t.Fatalf("ReadFrom = %d, %v; want %d", n, err, photo)
		}
	})

	for _, n := range under.sizes {
		if n > hspaUpStep {
			t.Fatalf("ReadFrom handed the kernel %d bytes, want at most one step (%d)", n, hspaUpStep)
		}
	}
	if d := rclk.slept - wclk.slept; d < -quantum || d > quantum {
		t.Errorf("ReadFrom slept %v of virtual time, 4 KB writes %v", rclk.slept, wclk.slept)
	}
	if off := math.Abs(float64(rclk.slept-photoIdeal)) / float64(photoIdeal); off > 0.02 {
		t.Errorf("ReadFrom slept %v of virtual time, ideal %v: off by %.1f %%", rclk.slept, photoIdeal, 100*off)
	}
	if rclk.sleeps > wclk.sleeps {
		t.Errorf("ReadFrom slept %d times, 4 KB writes %d", rclk.sleeps, wclk.sleeps)
	}
	if got, want := rc.up.rng.Int63(), wc.up.rng.Int63(); got != want {
		t.Errorf("the byte clock drew differently: next value %d after ReadFrom, %d after 4 KB writes", got, want)
	}
	t.Logf("ReadFrom: %v in %d sleeps, %d writes; 4 KB writes: %v in %d sleeps (ideal %v)",
		rclk.slept, rclk.sleeps, len(under.sizes), wclk.slept, wclk.sleeps, photoIdeal)
}

// A write step is what the direction's slowest limiter moves in a
// quantum, between maxChunk and MaxRead, for Write and ReadFrom alike,
// and it follows SetRate.
func TestWriteStepFollowsTheLink(t *testing.T) {
	clk := &stepClock{now: time.Unix(0, 0)}
	radio := NewLimiterClock(1e18, 0, clk)
	under := &writeRecorder{}
	c := WrapConn(under, Pipe{Up: Shape{Shared: []*Limiter{radio}}, Clock: clk}, 1)
	const big = 1 << 20
	largest := func() int {
		most := 0
		for _, n := range under.sizes {
			most = max(most, n)
		}
		under.sizes = nil
		return most
	}
	for _, step := range []struct {
		rate float64
		want int
	}{
		{hspaUp * hspaScale, hspaUpStep},
		{1e18, MaxRead},
		{adslDown * 20, maxChunk},
		{400e6, 50_000},
		{0, MaxRead},
	} {
		radio.SetRate(step.rate)
		if _, err := c.Write(make([]byte, big)); err != nil {
			t.Fatal(err)
		}
		if got := largest(); got != step.want {
			t.Errorf("after SetRate(%g) a %d-byte Write was handed to the kernel %d bytes at a time, want %d", step.rate, big, got, step.want)
		}
		if _, err := c.ReadFrom(onlyReader{bytes.NewReader(make([]byte, big))}); err != nil {
			t.Fatal(err)
		}
		if got := largest(); got != step.want {
			t.Errorf("after SetRate(%g) ReadFrom handed the kernel %d bytes at a time, want %d", step.rate, got, step.want)
		}
	}
	if _, err := c.Write(make([]byte, 4<<10)); err != nil {
		t.Fatal(err)
	}
	if got := largest(); got != 4<<10 {
		t.Errorf("a 4 KB write was handed over as %d bytes", got)
	}
}
