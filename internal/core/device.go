package core

import (
	"context"
	"net"
	"time"

	"threegol/internal/discovery"
	"threegol/internal/proxy"
	"threegol/internal/quota"
)

// Device is the device component of §4.1, the one 3gold and every
// emulated phone run: an HTTP proxy that pipes the home LAN's requests
// out through the phone's cellular interface, and a beacon that
// advertises it. One rule admits — the permit, when the device needs
// one, holds, and the quota, when it has one, has bytes left — and it
// answers both the proxy's every request (a refusal is a 503) and
// whether each beacon goes out.
type Device struct {
	// Proxy is the device's proxy; the caller sets its hooks other than
	// Admit (OnBytes, Metrics, Events, Logf, Debug) before Serve.
	Proxy *proxy.Server

	name, cell string
	quota      *quota.Tracker
	permit     func(context.Context) bool
	addr       string
	beacon     *discovery.Beacon
	shutdown   func() error
}

// NewDevice assembles a device that dials out through dial and reports
// serving cell cell (empty when unknown). tracker, when non-nil, caps
// what it carries; permit, when non-nil, is asked before it serves or
// advertises (network-integrated mode: permitplane.Cache.Allowed).
func NewDevice(name, cell string, dial proxy.Dialer, tracker *quota.Tracker, permit func(context.Context) bool) *Device {
	return &Device{Proxy: &proxy.Server{Dial: dial}, name: name, cell: cell, quota: tracker, permit: permit}
}

// allowance is the device's admission rule: it reports whether the
// permit, when the device needs one, holds and the quota, when it has
// one, has bytes left, and returns the quota left (0 with no quota).
func (d *Device) allowance(ctx context.Context) (int64, bool) {
	if d.permit != nil && !d.permit(ctx) {
		return 0, false
	}
	if d.quota == nil {
		return 0, true
	}
	left := d.quota.Available()
	return left, left > 0
}

// announcement is what the beacon sends, or false, which keeps it
// silent, while the admission rule refuses.
func (d *Device) announcement() (discovery.Announcement, bool) {
	left, ok := d.allowance(context.Background())
	return discovery.Announcement{Name: d.name, ProxyAddr: d.addr, Cell: d.cell, AllowanceBytes: left}, ok
}

// Serve starts the proxy on ln, ctx the base context of its requests,
// and unless target is empty a beacon announcing the device to target
// every interval (0 selects discovery.DefaultInterval). The admission
// rule becomes the proxy's Admit when the device has a permit or a
// quota (with neither there is no Admit hook), and the quota counts the
// proxy's bytes after its own OnBytes.
func (d *Device) Serve(ctx context.Context, ln net.Listener, target string, interval time.Duration) error {
	if d.permit != nil || d.quota != nil {
		d.Proxy.Admit = func(ctx context.Context) bool { _, ok := d.allowance(ctx); return ok }
	}
	if tr, own := d.quota, d.Proxy.OnBytes; tr != nil && own != nil {
		d.Proxy.OnBytes = func(n int64) { own(n); tr.Use(n) }
	} else if tr != nil {
		d.Proxy.OnBytes = tr.Use
	}
	d.addr = ln.Addr().String()
	d.shutdown = d.Proxy.Serve(ctx, ln)
	if target == "" {
		return nil
	}
	b := &discovery.Beacon{Target: target, Interval: interval, Announce: d.announcement}
	if err := b.Start(); err != nil {
		d.Close()
		return err
	}
	d.beacon = b
	return nil
}

// Close stops the beacon, then the proxy, returning the proxy's
// shutdown error. Call it once, after Serve has succeeded.
func (d *Device) Close() error {
	if d.beacon != nil {
		d.beacon.Stop()
	}
	return d.shutdown()
}
