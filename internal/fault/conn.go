package fault

import (
	"context"
	"net"
	"time"

	"threegol/internal/clock"
)

// Conn subjects a net.Conn's byte stream to a fault plan — the layer
// below Path, where mid-stream stalls are physically injectable because
// this wrapper owns every Read and Write. Sitting on top of a
// netem.Conn (whose pacing steps I/O by at most a quantum of link time:
// 16 KiB on a link that binds, up to netem.MaxRead on one that does
// not), the plan is consulted once per step, so a window opening
// mid-transfer takes effect within one step:
//
//   - blackout/depart/reset: the underlying conn is closed and the call
//     errors with *Error — a connection reset as the transport sees it;
//   - stall: the call blocks silently until the window closes (bytes
//     stop, no error — the watchdog-bait failure mode).
type Conn struct {
	net.Conn
	plan   *Plan
	target string
	clk    clock.Clock
	epoch  time.Time
}

// WrapConn wraps conn under the plan. Plan time 0 is epoch on clk (nil
// selects the system clock).
func WrapConn(conn net.Conn, plan *Plan, target string, epoch time.Time, clk clock.Clock) *Conn {
	return &Conn{Conn: conn, plan: plan, target: target, clk: clock.Or(clk), epoch: epoch}
}

// Read gates the plan, then reads.
func (c *Conn) Read(p []byte) (int, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// Write gates the plan, then writes.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// gate enforces the plan at the current instant: it errors through
// disruption windows (closing the transport) and sleeps through stall
// windows.
func (c *Conn) gate() error {
	for {
		t := c.clk.Since(c.epoch).Seconds()
		if w, ok := c.plan.ActiveAt(c.target, t, Blackout, Depart, Reset); ok {
			c.Conn.Close()
			return &Error{Target: c.target, Kind: w.Kind}
		}
		until, ok := c.plan.StalledAt(c.target, t)
		if !ok {
			return nil
		}
		rem := time.Duration((until - t) * float64(time.Second))
		const slice = 10 * time.Millisecond
		if rem > slice {
			rem = slice
		}
		if rem > 0 {
			c.clk.Sleep(rem)
		}
	}
}

// ContextDialer is the dialing shape shared by net.Dialer and
// netem.Dialer.
type ContextDialer interface {
	DialContext(ctx context.Context, network, addr string) (net.Conn, error)
}

// Dialer injects faults at dial time — a blackout/depart window refuses
// the connection outright — and wraps successful connections in Conn so
// the plan keeps governing the byte stream. Stack it over netem.Dialer
// to fault an emulated link.
type Dialer struct {
	Inner  ContextDialer
	Plan   *Plan
	Target string
	// Epoch is plan time 0; Clock maps wall time onto the plan's
	// timeline (nil selects the system clock).
	Epoch time.Time
	Clock clock.Clock
}

// DialContext implements ContextDialer.
func (d *Dialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	clk := clock.Or(d.Clock)
	t := clk.Since(d.Epoch).Seconds()
	if w, ok := d.Plan.ActiveAt(d.Target, t, Blackout, Depart); ok {
		return nil, &Error{Target: d.Target, Kind: w.Kind}
	}
	conn, err := d.Inner.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return WrapConn(conn, d.Plan, d.Target, d.Epoch, clk), nil
}
