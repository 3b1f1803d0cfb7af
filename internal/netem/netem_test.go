package netem

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestLimiterUnlimited(t *testing.T) {
	l := NewLimiter(0, 0)
	if d := l.Reserve(1e12); d != 0 {
		t.Errorf("unlimited limiter imposed wait %v", d)
	}
}

// take reserves bits and sleeps out the returned debt.
func take(l *Limiter, bits float64) {
	if d := l.Reserve(bits); d > 0 {
		l.clk.Sleep(d)
	}
}

func TestLimiterPacesToRate(t *testing.T) {
	// 8 Mbps limiter, send 1 MB (8 Mbit) in chunks: should take ≈1s
	// minus the initial burst allowance.
	l := NewLimiter(8e6, 8*8e3) // 8 KB burst
	start := time.Now()
	const chunk = 8 * 1024 * 8 // bits
	var sent float64
	for sent < 8e6 {
		take(l, chunk)
		sent += chunk
	}
	elapsed := time.Since(start).Seconds()
	if elapsed < 0.8 || elapsed > 1.4 {
		t.Errorf("8Mbit over 8Mbps took %.2fs, want ≈1s", elapsed)
	}
}

func TestLimiterSetRateTakesEffect(t *testing.T) {
	l := NewLimiter(1e6, 1) // tiny burst
	take(l, 1)              // drain
	l.SetRate(100e6)
	start := time.Now()
	take(l, 1e6) // 1 Mbit at 100 Mbps ≈ 10 ms
	if e := time.Since(start); e > 100*time.Millisecond {
		t.Errorf("rate change not applied: 1Mbit took %v", e)
	}
}

func TestLimiterSharedBetweenCallers(t *testing.T) {
	// Two goroutines share one 16 Mbps limiter; moving 8 Mbit each should
	// take ≈1s total (aggregate 16 Mbit over 16 Mbps).
	l := NewLimiter(16e6, 16e3)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sent float64
			for sent < 8e6 {
				take(l, 64e3)
				sent += 64e3
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed < 0.8 || elapsed > 1.5 {
		t.Errorf("16Mbit over shared 16Mbps took %.2fs, want ≈1s", elapsed)
	}
}

// Property: Reserve never returns a negative wait and always admits
// traffic eventually (debt is proportional to requested bits).
func TestLimiterReserveProperty(t *testing.T) {
	f := func(bitsRaw uint32) bool {
		l := NewLimiter(1e9, 1e6)
		bits := float64(bitsRaw % 1e7)
		d := l.Reserve(bits)
		return d >= 0 && d <= time.Duration(bits/1e9*float64(time.Second))+time.Second
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// echoServer accepts one connection and echoes everything.
func echoServer(t *testing.T) (addr string, done func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(c)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

func TestDialerShapesThroughput(t *testing.T) {
	addr, done := echoServer(t)
	defer done()

	// 2 Mbps ADSL downlink, accelerated 20×: a 1 Mbit payload echoes
	// through the down direction in ≈1Mbit/40Mbps ≈ 25 ms (+overheads).
	d := &Dialer{Pipe: Pipe{
		Down:      Shape{Rate: 2e6},
		Up:        Shape{Rate: 2e6},
		TimeScale: 20,
	}}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	payload := bytes.Repeat([]byte("x"), 8e6/8) // 8 Mbit
	start := time.Now()
	go func() {
		conn.Write(payload)
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	// Each direction paces ≈8 Mbit (minus token burst) at 40 Mbps
	// effective; up and down overlap, so ≥ ~0.19 s, and far under the
	// unscaled 4 s.
	if elapsed < 0.15 {
		t.Errorf("transfer too fast (%.3fs): shaping absent", elapsed)
	}
	if elapsed > 2.0 {
		t.Errorf("transfer too slow (%.3fs): time scale not applied", elapsed)
	}
}

func TestLatencyAppliedOncePerConn(t *testing.T) {
	addr, done := echoServer(t)
	defer done()
	d := &Dialer{Pipe: Pipe{
		Down: Shape{Latency: 300 * time.Millisecond},
		Up:   Shape{Latency: 300 * time.Millisecond},
	}}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// First byte pays up+down latency.
	start := time.Now()
	conn.Write([]byte("a"))
	buf := make([]byte, 1)
	io.ReadFull(conn, buf)
	first := time.Since(start)
	if first < 600*time.Millisecond {
		t.Errorf("first byte RTT %v, want ≥600ms", first)
	}
	// Subsequent bytes do not.
	start = time.Now()
	conn.Write([]byte("b"))
	io.ReadFull(conn, buf)
	if second := time.Since(start); second > 200*time.Millisecond {
		t.Errorf("second byte RTT %v, want latency-free", second)
	}
}

func TestSharedWiFiCapBindsTwoConns(t *testing.T) {
	addr, done := echoServer(t)
	defer done()
	// Two connections share a 4 Mbps BSS (scaled 10× → 40 Mbps): moving
	// 2 Mbit on each (4 Mbit aggregate, up+down = 8 Mbit through the BSS)
	// needs ≈0.2 s; a single private 4 Mbps each would take half that.
	bss := NewWiFiLimiter(4e6, 10)
	mk := func() net.Conn {
		d := &Dialer{Pipe: WiFiPipe(bss, 10)}
		c, err := d.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1, c2 := mk(), mk()
	defer c1.Close()
	defer c2.Close()
	payload := bytes.Repeat([]byte("z"), 2e6/8)
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range []net.Conn{c1, c2} {
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			go c.Write(payload)
			buf := make([]byte, len(payload))
			io.ReadFull(c, buf)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed < 0.15 {
		t.Errorf("shared BSS not binding: took %.3fs, want ≥0.18s", elapsed)
	}
}

func TestRateProcessWanders(t *testing.T) {
	l := NewLimiter(10e6, 0)
	rp := &RateProcess{
		Limiter:  l,
		Mean:     10e6,
		Std:      0.3,
		Interval: 5 * time.Millisecond,
	}
	rp.Start(99)
	seen := map[int64]bool{}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) && len(seen) < 3 {
		seen[int64(l.Rate())] = true
		time.Sleep(5 * time.Millisecond)
	}
	rp.Stop()
	if len(seen) < 3 {
		t.Errorf("rate did not wander: observed %d distinct rates", len(seen))
	}
	if l.Rate() != 10e6 {
		t.Errorf("Stop did not restore mean rate: %v", l.Rate())
	}
	// Stopping twice must be safe.
	rp.Stop()
}

func TestRateProcessStaysClipped(t *testing.T) {
	l := NewLimiter(1e6, 0)
	rp := &RateProcess{
		Limiter: l, Mean: 1e6, Std: 5, // huge noise to force clipping
		Interval: time.Millisecond, MinFactor: 0.5, MaxFactor: 1.2,
	}
	rp.Start(7)
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		r := l.Rate()
		if r < 0.5e6-1 || r > 1.2e6+1 {
			rp.Stop()
			t.Fatalf("rate %v escaped clip [0.5e6, 1.2e6]", r)
		}
		time.Sleep(2 * time.Millisecond)
	}
	rp.Stop()
}

func TestHSPAPipeAndADSLPipeConstructors(t *testing.T) {
	p, dl, ul := ADSLPipe(6e6, 0.5e6, 50)
	if dl.Rate() != 6e6*50 || ul.Rate() != 0.5e6*50 {
		t.Errorf("ADSL limiter rates not scaled: %v %v", dl.Rate(), ul.Rate())
	}
	if p.TimeScale != 50 {
		t.Errorf("TimeScale = %v", p.TimeScale)
	}
	p3, dl3, ul3 := HSPAPipe(2e6, 1.5e6, 50)
	if dl3.Rate() != 2e6*50 || ul3.Rate() != 1.5e6*50 {
		t.Errorf("HSPA limiter rates not scaled: %v %v", dl3.Rate(), ul3.Rate())
	}
	if p3.Down.StallProb <= 0 {
		t.Error("HSPA downlink should model stalls")
	}
}
