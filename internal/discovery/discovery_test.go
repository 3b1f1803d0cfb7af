package discovery

import (
	"encoding/json"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"threegol/internal/obs"
	"threegol/internal/permit"
)

func fixedAnnounce(name, addr string) func() (Announcement, bool) {
	return func() (Announcement, bool) {
		return Announcement{Name: name, ProxyAddr: addr, AllowanceBytes: 1 << 20}, true
	}
}

func TestBeaconAndBrowser(t *testing.T) {
	br := &Browser{}
	addr, err := br.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()

	b := &Beacon{Target: addr, Announce: fixedAnnounce("ph1", "10.0.0.2:8080"), Interval: 20 * time.Millisecond}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	devs := br.WaitFor(1, 2*time.Second)
	if len(devs) != 1 {
		t.Fatalf("devices = %d, want 1", len(devs))
	}
	if devs[0].Name != "ph1" || devs[0].ProxyAddr != "10.0.0.2:8080" {
		t.Errorf("announcement = %+v", devs[0])
	}
	if devs[0].AllowanceBytes != 1<<20 {
		t.Errorf("allowance = %d", devs[0].AllowanceBytes)
	}
}

func TestMultipleDevicesFormAdmissibleSet(t *testing.T) {
	br := &Browser{}
	addr, err := br.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()

	for _, name := range []string{"ph1", "ph2", "ph3"} {
		b := &Beacon{Target: addr, Announce: fixedAnnounce(name, name+":1"), Interval: 20 * time.Millisecond}
		if err := b.Start(); err != nil {
			t.Fatal(err)
		}
		defer b.Stop()
	}
	devs := br.WaitFor(3, 2*time.Second)
	if len(devs) != 3 {
		t.Fatalf("admissible set = %d devices, want 3", len(devs))
	}
}

func TestSilentBeaconNeverAppears(t *testing.T) {
	br := &Browser{}
	addr, err := br.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()

	b := &Beacon{
		Target:   addr,
		Announce: func() (Announcement, bool) { return Announcement{}, false },
		Interval: 10 * time.Millisecond,
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	time.Sleep(100 * time.Millisecond)
	if devs := br.Devices(); len(devs) != 0 {
		t.Errorf("gated device appeared: %+v", devs)
	}
}

func TestEntryExpiresAfterTTL(t *testing.T) {
	br := &Browser{TTL: 80 * time.Millisecond}
	addr, err := br.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()

	var silent atomic.Bool
	b := &Beacon{
		Target: addr,
		Announce: func() (Announcement, bool) {
			if silent.Load() {
				return Announcement{}, false
			}
			return Announcement{Name: "ph1", ProxyAddr: "x:1"}, true
		},
		Interval: 15 * time.Millisecond,
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	if devs := br.WaitFor(1, 2*time.Second); len(devs) != 1 {
		t.Fatal("device never appeared")
	}
	// Revoke: device goes quiet (permit lost); entry must expire.
	silent.Store(true)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(br.Devices()) == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("entry did not expire after beacon went silent")
}

// TestBrowserIgnoresMalformedDatagrams sends each datagram and then a
// well-formed one; the browser reads them in order, so once the last is
// recorded every earlier one has been judged.
func TestBrowserIgnoresMalformedDatagrams(t *testing.T) {
	br := &Browser{}
	addr, err := br.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()

	udpAddr, _ := net.ResolveUDPAddr("udp", addr)
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, d := range []string{
		"not json",
		`{"proxy_addr":"x:1"}`, // missing name
		`{"name":"slash","proxy_addr":"evil/x"}`,
		`{"name":"new\nline","proxy_addr":"x:1"}`,
		`{"name":"` + strings.Repeat("n", 65) + `","proxy_addr":"x:1"}`,
		`{"name":"negative","proxy_addr":"x:1","allowance_bytes":-5}`,
		`{"name":"nohost","proxy_addr":":8080"}`,
		`{"name":"port0","proxy_addr":"x:0"}`,
		`{"name":"port65536","proxy_addr":"x:65536"}`,
		`{"name":"portname","proxy_addr":"x:http"}`,
		`{"name":"cell","proxy_addr":"x:1","cell":"c 1"}`,
	} {
		conn.Write([]byte(d))
	}
	want := Announcement{Name: "3gol-host.lan_" + strings.Repeat("n", 50), ProxyAddr: "[::1]:65535",
		AllowanceBytes: 7, Cell: "bs-7.a_b/s0"}
	b, _ := json.Marshal(want)
	conn.Write(b)
	if devs := br.WaitFor(1, 2*time.Second); len(devs) != 1 || devs[0] != want {
		t.Errorf("devices = %+v, want only %+v", devs, want)
	}
}

// FuzzAnnouncement feeds arbitrary datagrams to the browser's decoder:
// it never panics, everything it accepts obeys the rules — its IDs are
// the permit plane's, permit.ValidID, as FuzzPermitQuery holds GET
// /permit to — and an accepted announcement survives a JSON round trip
// unchanged.
func FuzzAnnouncement(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ann, ok := parseAnnouncement(data)
		if !ok {
			return
		}
		host, port, err := net.SplitHostPort(ann.ProxyAddr)
		p, perr := strconv.Atoi(port)
		if !permit.ValidID(ann.Name) || (ann.Cell != "" && !permit.ValidID(ann.Cell)) ||
			ann.AllowanceBytes < 0 || err != nil || host == "" || perr != nil || p < 1 || p > 65535 {
			t.Fatalf("accepted %q as %+v", data, ann)
		}
		b, err := json.Marshal(ann)
		if err != nil {
			t.Fatal(err)
		}
		if again, ok := parseAnnouncement(b); !ok || again != ann {
			t.Fatalf("%+v encoded as %s decodes to %+v, %v", ann, b, again, ok)
		}
	})
}

func TestBeaconStartErrors(t *testing.T) {
	b := &Beacon{Target: "127.0.0.1:1"}
	if err := b.Start(); err == nil {
		b.Stop()
		t.Error("missing Announce accepted")
	}
	b2 := &Beacon{Target: "://bad", Announce: fixedAnnounce("x", "x:1")}
	if err := b2.Start(); err == nil {
		b2.Stop()
		t.Error("bad target accepted")
	}
}

func TestBeaconDoubleStopSafe(t *testing.T) {
	br := &Browser{}
	addr, _ := br.Listen("127.0.0.1:0")
	defer br.Close()
	b := &Beacon{Target: addr, Announce: fixedAnnounce("x", "x:1")}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	b.Stop()
	b.Stop() // must not panic or hang
}

func TestBeaconRestartAfterStop(t *testing.T) {
	br := &Browser{}
	addr, _ := br.Listen("127.0.0.1:0")
	defer br.Close()
	b := &Beacon{Target: addr, Announce: fixedAnnounce("x", "x:1"), Interval: 10 * time.Millisecond}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	b.Stop()
	if err := b.Start(); err != nil {
		t.Fatalf("restart failed: %v", err)
	}
	defer b.Stop()
	if devs := br.WaitFor(1, 2*time.Second); len(devs) != 1 {
		t.Error("restarted beacon not visible")
	}
}

func TestRefreshUpdatesAllowance(t *testing.T) {
	br := &Browser{}
	addr, _ := br.Listen("127.0.0.1:0")
	defer br.Close()
	var allowance atomic.Int64
	allowance.Store(100)
	b := &Beacon{
		Target: addr,
		Announce: func() (Announcement, bool) {
			return Announcement{Name: "ph1", ProxyAddr: "x:1", AllowanceBytes: allowance.Load()}, true
		},
		Interval: 15 * time.Millisecond,
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	br.WaitFor(1, 2*time.Second)
	allowance.Store(42)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		devs := br.Devices()
		if len(devs) == 1 && devs[0].AllowanceBytes == 42 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("refreshed allowance never observed")
}

// fakeClock is a settable clock.Clock for TTL-boundary tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *fakeClock) Sleep(d time.Duration) { c.advance(d) }

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBrowserFlapAroundTTLBoundary(t *testing.T) {
	// A device flapping around the TTL boundary must not oscillate Φ
	// within one sweep (the cutoff is read once per Devices call), and
	// each genuine expiry must bump discovery_entries_expired_total
	// exactly once — not once per subsequent sweep.
	clk := &fakeClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	br := &Browser{TTL: time.Second, Metrics: m, Clock: clk}
	br.init(nil)
	expired := func() int64 { return m.Expired.With().Value() }

	ann := func(name string) Announcement {
		return Announcement{Name: name, ProxyAddr: name + ":8080"}
	}
	br.record(ann("kitchen"))
	br.record(ann("hall"))

	// Just inside the TTL: both visible, nothing expired.
	clk.advance(time.Second - time.Millisecond)
	if got := len(br.Devices()); got != 2 {
		t.Fatalf("Φ = %d devices inside TTL; want 2", got)
	}
	if got := expired(); got != 0 {
		t.Fatalf("expired = %d before any TTL lapse", got)
	}

	// hall refreshes at the boundary; kitchen stays silent and crosses
	// it. One sweep: hall in, kitchen out, exactly one expiry.
	br.record(ann("hall"))
	clk.advance(2 * time.Millisecond)
	devs := br.Devices()
	if len(devs) != 1 || devs[0].Name != "hall" {
		t.Fatalf("Φ after kitchen lapsed = %+v; want just hall", devs)
	}
	if got := expired(); got != 1 {
		t.Fatalf("expired = %d after one genuine lapse; want exactly 1", got)
	}

	// Re-sweeping must not recount the already-deleted entry.
	if got := len(br.Devices()); got != 1 {
		t.Fatalf("second sweep Φ = %d; want 1", got)
	}
	if got := expired(); got != 1 {
		t.Fatalf("expired = %d after re-sweep; a dead entry was double-counted", got)
	}

	// kitchen flaps back in...
	br.record(ann("kitchen"))
	if got := len(br.Devices()); got != 2 {
		t.Fatalf("Φ after kitchen returned = %d; want 2", got)
	}
	// ...then everything falls silent past the TTL: two more expiries
	// (kitchen again + hall), each counted once.
	clk.advance(time.Second + time.Millisecond)
	if got := len(br.Devices()); got != 0 {
		t.Fatalf("Φ after total silence = %d; want 0", got)
	}
	if got := expired(); got != 3 {
		t.Fatalf("expired = %d; want 3 (each genuine expiry exactly once)", got)
	}
}
