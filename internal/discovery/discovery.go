// Package discovery implements the Bonjour-like advertisement protocol of
// the paper's architecture (§2.4): each 3GOL device announces its proxy
// endpoint on the home LAN *only while it is allowed to onload* (it holds
// a permit in the network-integrated mode, or has remaining quota in the
// multi-provider mode). The client browses these announcements to build
// the admissible set Φ handed to the multipath scheduler.
//
// Announcements are JSON datagrams over UDP, refreshed periodically;
// entries that stop being refreshed expire after TTL, which is how a
// device silently withdraws when its permit is revoked.
package discovery

import (
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"threegol/internal/clock"
	"threegol/internal/permit"
)

// Announcement is one device's advertisement.
type Announcement struct {
	// Name identifies the device ("galaxy-s2-kitchen").
	Name string `json:"name"`
	// ProxyAddr is the host:port of the device's HTTP proxy on the LAN.
	ProxyAddr string `json:"proxy_addr"`
	// AllowanceBytes is the remaining 3GOL quota A(t) the device is
	// willing to carry today (0 = unlimited / network-integrated).
	AllowanceBytes int64 `json:"allowance_bytes"`
	// Cell is the device's serving cell ID (network-integrated mode;
	// empty otherwise). Clients forward it so their own permit checks
	// can gate each path on the cell it would actually load.
	Cell string `json:"cell,omitempty"`
}

// DefaultInterval is the default beacon refresh period.
const DefaultInterval = 500 * time.Millisecond

// Beacon periodically announces one device to a Browser's UDP endpoint.
// The paper's devices advertise over multicast DNS; on the emulated LAN a
// unicast datagram to the gateway's discovery port carries the same
// information.
type Beacon struct {
	// Target is the Browser's UDP address.
	Target string
	// Announce produces the current announcement, or false to stay
	// silent this round (no permit / no quota) — the admission control
	// point of the architecture.
	Announce func() (Announcement, bool)
	// Interval between beacons; 0 selects DefaultInterval.
	Interval time.Duration
	// Metrics receives beacon instrumentation (see NewMetrics); the
	// zero value records nothing.
	Metrics Metrics

	mu   sync.Mutex
	stop chan struct{}
	wg   sync.WaitGroup
}

// Start launches the beacon loop. It returns an error if the target
// address does not resolve. Calling Start on a running beacon panics.
func (b *Beacon) Start() error {
	if b.Announce == nil {
		return fmt.Errorf("discovery: Beacon has no Announce func")
	}
	// Resolve and dial before taking the lock: DNS resolution is network
	// I/O, and holding b.mu across it would stall Stop (and every other
	// Beacon entry point) behind a slow resolver.
	addr, err := net.ResolveUDPAddr("udp", b.Target)
	if err != nil {
		return fmt.Errorf("discovery: resolving %q: %w", b.Target, err)
	}
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return fmt.Errorf("discovery: dialing %q: %w", b.Target, err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stop != nil {
		conn.Close()
		panic("discovery: Beacon started twice")
	}
	interval := b.Interval
	if interval <= 0 {
		interval = DefaultInterval
	}
	stop := make(chan struct{})
	b.stop = stop
	b.wg.Add(1)
	// The loop must select on its own copy of the channel: Stop nils
	// b.stop before closing it, and a select on a nil channel blocks
	// forever.
	go func() {
		defer b.wg.Done()
		defer conn.Close()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		b.send(conn) // announce immediately
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				b.send(conn)
			}
		}
	}()
	return nil
}

func (b *Beacon) send(conn *net.UDPConn) {
	ann, ok := b.Announce()
	b.Metrics.beacon(ok)
	if !ok {
		return
	}
	payload, err := json.Marshal(ann)
	if err != nil {
		return
	}
	_, _ = conn.Write(payload) // best-effort datagram; the next beat retries
}

// Stop halts the beacon. Safe to call twice.
func (b *Beacon) Stop() {
	stop := b.takeStop()
	if stop == nil {
		return
	}
	close(stop)
	b.wg.Wait()
}

// takeStop claims the stop channel, leaving nil so Stop is idempotent.
func (b *Beacon) takeStop() chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	stop := b.stop
	b.stop = nil
	return stop
}

// Browser listens for announcements and maintains the live device table.
type Browser struct {
	// TTL is how long an entry survives without a refresh; 0 selects
	// 3×DefaultInterval.
	TTL time.Duration
	// Metrics receives announcement/churn instrumentation (see
	// NewMetrics); the zero value records nothing.
	Metrics Metrics
	// Clock ages entries for TTL expiry; nil selects the system clock.
	// Tests inject a fake to pin sweeps to exact instants around the
	// TTL boundary.
	Clock clock.Clock

	mu      sync.Mutex
	conn    *net.UDPConn
	entries map[string]entry
	wg      sync.WaitGroup
	closed  bool
}

type entry struct {
	ann  Announcement
	seen time.Time
}

// Listen binds the browser to a UDP address (use "127.0.0.1:0" in tests)
// and starts receiving. It returns the bound address for beacons to
// target.
func (br *Browser) Listen(addr string) (string, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return "", fmt.Errorf("discovery: resolving %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return "", fmt.Errorf("discovery: listening on %q: %w", addr, err)
	}
	br.init(conn)
	br.wg.Add(1)
	go br.receive(conn)
	return conn.LocalAddr().String(), nil
}

// init publishes the listening socket and resets the entry table.
func (br *Browser) init(conn *net.UDPConn) {
	br.mu.Lock()
	defer br.mu.Unlock()
	br.conn = conn
	br.entries = make(map[string]entry)
}

func (br *Browser) receive(conn *net.UDPConn) {
	defer br.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		if ann, ok := parseAnnouncement(buf[:n]); ok {
			br.record(ann)
		}
	}
}

// parseAnnouncement decodes a datagram from the LAN and reports whether
// it is a well-formed announcement. A client builds a proxy URL from
// ProxyAddr, logs Name and forwards Cell to the permit backend, so:
// Name is a permit.ValidID, Cell is empty or one, ProxyAddr is host:port
// with a host and a port in 1–65535, and AllowanceBytes is not negative.
func parseAnnouncement(b []byte) (Announcement, bool) {
	var a Announcement
	if json.Unmarshal(b, &a) != nil || !permit.ValidID(a.Name) || (a.Cell != "" && !permit.ValidID(a.Cell)) ||
		a.AllowanceBytes < 0 {
		return a, false
	}
	host, port, err := net.SplitHostPort(a.ProxyAddr)
	p, perr := strconv.ParseUint(port, 10, 16)
	return a, err == nil && host != "" && perr == nil && p > 0
}

// record stamps an announcement with its arrival time on the browser's
// clock; beacon liveness is a real-network protocol, so this is wall
// time in production and a fake only in tests.
func (br *Browser) record(ann Announcement) {
	br.mu.Lock()
	defer br.mu.Unlock()
	if !br.closed {
		br.entries[ann.Name] = entry{ann: ann, seen: clock.Or(br.Clock).Now()}
		br.Metrics.Announcements.Inc()
	}
}

func (br *Browser) ttl() time.Duration {
	if br.TTL > 0 {
		return br.TTL
	}
	return 3 * DefaultInterval
}

// Devices returns the announcements seen within TTL — the admissible set
// Φ at this instant. The cutoff is read once per sweep, so every entry
// is judged against the same instant: a device flapping around the TTL
// boundary cannot oscillate in and out of Φ within one sweep, and each
// genuine expiry deletes the entry (and bumps the expiry counter)
// exactly once.
func (br *Browser) Devices() []Announcement {
	br.mu.Lock()
	defer br.mu.Unlock()
	cutoff := clock.Or(br.Clock).Now().Add(-br.ttl())
	out := make([]Announcement, 0, len(br.entries))
	expired := 0
	for name, e := range br.entries {
		if e.seen.Before(cutoff) {
			delete(br.entries, name)
			expired++
			continue
		}
		out = append(out, e.ann)
	}
	br.Metrics.swept(expired, len(out))
	return out
}

// WaitFor blocks until at least n devices are visible or the timeout
// elapses, returning the set either way.
func (br *Browser) WaitFor(n int, timeout time.Duration) []Announcement {
	deadline := time.Now().Add(timeout) //3golvet:allow wallclock — polls a live UDP socket
	for {
		devs := br.Devices()
		if len(devs) >= n || time.Now().After(deadline) { //3golvet:allow wallclock
			return devs
		}
		time.Sleep(10 * time.Millisecond) //3golvet:allow wallclock
	}
}

// Close stops the browser.
func (br *Browser) Close() {
	br.mu.Lock()
	br.closed = true
	conn := br.conn
	br.conn = nil
	br.mu.Unlock()
	if conn != nil {
		conn.Close()
		br.wg.Wait()
	}
}
