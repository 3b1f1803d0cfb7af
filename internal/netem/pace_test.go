package netem

import (
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// stepClock is a virtual clock that only Sleep advances; it counts the
// sleeps it is asked for.
type stepClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps int
	slept  time.Duration
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
// here, one timer-floor sleep per 4 KB.
func TestLinkRateBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock budget; the race detector's per-byte cost is not link time")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	discardServer(t, ln)
	pipe, _, _ := HSPAPipe(1.83e6, hspaUp, hspaScale)
	d := &Dialer{Pipe: pipe, Seed: 7}
	c, err := d.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	writeIn(t, c, photo, []int{4 << 10})
	if took := time.Since(start); took > photoIdeal*5/4 {
		t.Errorf("3 MB in 4 KB writes took %v, budget 1.25 × ideal %v", took, photoIdeal)
	} else {
		t.Logf("3 MB in 4 KB writes took %v, ideal %v (%.2f of the configured rate)", took, photoIdeal, float64(photoIdeal)/float64(took))
	}
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
