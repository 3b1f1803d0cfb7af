// Cross-subsystem deployment-shaped tests; the package doc lives in
// doc.go, the only non-test file.
package integration

import (
	"context"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"threegol/internal/cellular"
	"threegol/internal/core"
	"threegol/internal/discovery"
	"threegol/internal/hls"
	"threegol/internal/linksim"
	"threegol/internal/permitplane"
	"threegol/internal/quota"
	"threegol/internal/scheduler"
	"threegol/internal/simclock"
	"threegol/internal/transfer"
)

// TestNetworkIntegratedPermitLoop wires the permit backend's monitoring
// hook to a live cellular model: while the cell is idle the device gets
// a permit and advertises; once background load congests the cell past
// the threshold, fresh permits are denied and the device withdraws.
func TestNetworkIntegratedPermitLoop(t *testing.T) {
	// A one-sector deployment whose utilisation we control directly by
	// saturating the shared channel with a long background flow.
	sim := linksim.New(simclock.New())
	cellNet := cellular.NewNetwork(sim, rand.New(rand.NewSource(1)), cellular.DefaultParams())
	bs := cellNet.AddBaseStation(cellular.BaseStationConfig{Name: "bs", Sectors: 1})
	cell := bs.Sectors()[0]

	// The monitoring system samples utilisation; the backend must not
	// reach into the single-goroutine simulator from HTTP handlers, so
	// the test publishes snapshots the way a real monitor would.
	var utilSnapshot atomic.Value
	utilSnapshot.Store(0.0)
	backend := permitplane.New(permitplane.Config{
		Utilization: func(cellID string) float64 { return utilSnapshot.Load().(float64) },
		Threshold:   0.7,
		TTL:         50 * time.Millisecond,
	})
	backendSrv := httptest.NewServer(backend)
	defer backendSrv.Close()

	// The device side is the stack the daemons run.
	permits := &permitplane.Cache{
		Fetch:  (&permitplane.BatchClient{BackendURL: backendSrv.URL}).Fetch,
		Device: "ph1",
		Cell:   cell.Name(),
	}

	// Device component: proxy and beacon gated on the permit, announcing
	// the sector it is in.
	browser := &discovery.Browser{TTL: 120 * time.Millisecond}
	discoAddr, err := browser.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer browser.Close()
	proxyAddr := serveDevice(t, core.NewDevice("ph1", cell.Name(), &net.Dialer{}, nil, permits.Allowed), discoAddr)

	// Phase 1: idle cell → permit granted → device visible, in its cell.
	if devs := browser.WaitFor(1, 2*time.Second); len(devs) != 1 || devs[0].Cell != cell.Name() {
		t.Fatalf("device not advertised in cell %q while cell idle: %+v", cell.Name(), devs)
	}

	// Phase 2: congest the cell — several background subscribers, each
	// radio-capped, jointly saturate the shared downlink channel — and
	// let the cached permit expire.
	for i := 0; i < 8; i++ {
		dev := cellNet.Attach("bg", -78)
		dev.WarmUp()
		dev.StartTransfer(cellular.Downlink, 1e12, nil) // effectively endless
	}
	sim.RunUntil(sim.Clock().Now() + 1)
	utilSnapshot.Store(cell.Utilization())
	if cell.Utilization() < 0.7 {
		t.Fatalf("background flow did not congest the cell (util %.2f)", cell.Utilization())
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(browser.Devices()) == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if devs := browser.Devices(); len(devs) != 0 {
		t.Fatalf("device still advertised under congestion: %+v", devs)
	}
	// The proxy itself also refuses service now.
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("hi"))
	}))
	defer origin.Close()
	proxyURL := &url.URL{Scheme: "http", Host: proxyAddr}
	client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)}}
	resp, err := client.Get(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("congested-cell proxy returned %s, want 503", resp.Status)
	}

	grants, denials := backend.Stats()
	if grants == 0 || denials == 0 {
		t.Errorf("backend stats grants=%d denials=%d; want both phases exercised", grants, denials)
	}
}

// TestFullOTTStack builds the deployable pipeline exactly as the CLI
// tools do — two device proxies, discovery, the exported NewVoDProxy —
// and plays a video through it, asserting the phones carried segments.
func TestFullOTTStack(t *testing.T) {
	video := hls.Video{
		Name: "clip", Duration: 30, SegmentDur: 5,
		Qualities: []hls.Quality{{Name: "q1", Bitrate: 300_000}},
	}
	origin := httptest.NewServer(hls.NewOrigin(video))
	defer origin.Close()

	browser := &discovery.Browser{}
	discoAddr, err := browser.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer browser.Close()

	// Two device daemons with byte accounting via quota trackers.
	var trackers []*quota.Tracker
	for _, name := range []string{"ph1", "ph2"} {
		tr := quota.NewTracker(100 << 20)
		trackers = append(trackers, tr)
		serveDevice(t, core.NewDevice(name, "", &net.Dialer{}, tr, nil), discoAddr)
	}

	// Client side: build routes from discovery, start the accelerating
	// proxy, play through it.
	anns := browser.WaitFor(2, 3*time.Second)
	if len(anns) != 2 {
		t.Fatalf("discovered %d devices, want 2", len(anns))
	}
	var routes []core.Route
	for _, ann := range anns {
		u := &url.URL{Scheme: "http", Host: ann.ProxyAddr}
		routes = append(routes, core.Route{
			Name:   ann.Name,
			Client: &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(u)}},
		})
	}
	handler, err := core.NewVoDProxy(http.DefaultClient, routes, origin.URL, scheduler.Greedy, scheduler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	accel := httptest.NewServer(handler)
	defer accel.Close()

	player := &hls.Player{Client: accel.Client(), PrebufferFrac: 0.4}
	res, err := player.Play(context.Background(), accel.URL+"/clip/master.m3u8", "q1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != 6 {
		t.Errorf("segments = %d, want 6", res.Segments)
	}
	if want := int64(300_000 * 30 / 8); res.Bytes != want {
		t.Errorf("bytes = %d, want %d", res.Bytes, want)
	}
	// The device proxies actually carried traffic (quota accounting saw
	// it).
	var carried int64
	for _, tr := range trackers {
		carried += 100<<20 - tr.Available()
	}
	if carried == 0 {
		t.Error("no bytes flowed through the device proxies")
	}
}

// TestQuotaGateClosesMidSession verifies the multi-provider behaviour end
// to end: a device with a tiny allowance serves until its tracker runs
// dry, after which the proxy declines and the transaction survives by
// routing around it.
func TestQuotaGateClosesMidSession(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A little service time per item: at loopback speed the ADSL path
		// could drain all twelve while the phone was still dialling its
		// first, and a phone that serves one item never meets its quota.
		time.Sleep(2 * time.Millisecond)
		w.Write(make([]byte, 64*1024))
	}))
	defer origin.Close()

	tr := quota.NewTracker(100 * 1024) // ~1.5 responses worth
	addr := serveDevice(t, core.NewDevice("ph1", "", &net.Dialer{}, tr, nil), "")

	u := &url.URL{Scheme: "http", Host: addr}
	phone := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(u)}}
	paths := []scheduler.Path{
		&transfer.DownloadPath{PathName: "adsl", Client: http.DefaultClient},
		&transfer.DownloadPath{PathName: "phone", Client: phone},
	}
	items := make([]scheduler.Item, 12)
	for i := range items {
		items[i] = scheduler.Item{ID: i, Name: origin.URL + "/f", Size: 64 * 1024}
	}
	rep, err := scheduler.Run(context.Background(), scheduler.Greedy, items, paths, scheduler.Options{})
	if err != nil {
		t.Fatalf("transaction should survive quota exhaustion via the ADSL path: %v", err)
	}
	var total int
	for _, st := range rep.PerPath {
		total += st.Items
	}
	if total != 12 {
		t.Errorf("items completed = %d, want 12", total)
	}
	if tr.Available() != 0 {
		t.Errorf("quota not exhausted: %d left", tr.Available())
	}
}

// serveDevice serves dev on a loopback port, announcing it to target
// every 20 ms unless target is empty, until the test ends, and returns
// its proxy's address.
func serveDevice(t *testing.T, dev *core.Device, target string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Serve(context.Background(), ln, target, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	return ln.Addr().String()
}
