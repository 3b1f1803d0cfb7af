package core

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"threegol/internal/hls"
	"threegol/internal/scheduler"
)

// testVideo is small so integration tests stay fast even at modest
// time scales: 40 s video, 8 segments, two qualities.
func testVideo() hls.Video {
	return hls.Video{
		Name:       "clip",
		Duration:   40,
		SegmentDur: 5,
		Qualities: []hls.Quality{
			{Name: "q1", Bitrate: 200_000},
			{Name: "q2", Bitrate: 400_000},
		},
	}
}

func testTimeScale() float64 {
	if raceEnabled {
		return 20
	}
	return 40
}

func testHome(t *testing.T, phones ...PhoneConfig) *Home {
	t.Helper()
	h, err := NewHome(HomeConfig{
		DSLDown:   2e6,
		DSLUp:     0.5e6,
		TimeScale: testTimeScale(),
		Phones:    phones,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

func warmPhone(name string) PhoneConfig {
	return PhoneConfig{Name: name, Down: 2e6, Up: 1.5e6, Warm: true}
}

func TestNewHomeValidation(t *testing.T) {
	if _, err := NewHome(HomeConfig{DSLDown: 0, DSLUp: 1}); err == nil {
		t.Error("zero DSL rate accepted")
	}
	if _, err := NewHome(HomeConfig{DSLDown: 1e6, DSLUp: 1e6,
		Phones: []PhoneConfig{{Name: "p", Down: 0, Up: 1}}}); err == nil {
		t.Error("zero phone rate accepted")
	}
}

func TestPhonesAppearInDiscovery(t *testing.T) {
	h := testHome(t, warmPhone("ph1"), warmPhone("ph2"))
	devs := h.AdmissibleDevices(2, 5*time.Second)
	if len(devs) != 2 {
		t.Fatalf("admissible set = %d, want 2", len(devs))
	}
}

func TestQuotaExhaustedPhoneWithdraws(t *testing.T) {
	h := testHome(t, PhoneConfig{
		Name: "capped", Down: 2e6, Up: 1.5e6, Warm: true, DailyQuotaBytes: 1000,
	})
	if devs := h.AdmissibleDevices(1, 5*time.Second); len(devs) != 1 {
		t.Fatal("capped phone should advertise while quota remains")
	}
	// Burn the quota directly.
	h.Phones[0].Device.quota.Use(2000)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(h.Browser.Devices()) == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Error("exhausted phone still advertising")
}

func TestBaselineVoDMatchesExpectedDuration(t *testing.T) {
	origin := httptest.NewServer(hls.NewOrigin(testVideo()))
	defer origin.Close()
	h := testHome(t)

	res, err := h.BaselineVoD(context.Background(), origin.URL, "/clip/master.m3u8", 1.0, "q2")
	if err != nil {
		t.Fatal(err)
	}
	// 400 kbps × 40 s = 16 Mbit over a 2 Mbps line ⇒ ≈8 s emulated.
	got := res.Total.Seconds()
	if got < 6 || got > 13 {
		t.Errorf("baseline total = %.1fs emulated, want ≈8s", got)
	}
	if res.Segments != 8 {
		t.Errorf("segments = %d, want 8", res.Segments)
	}
}

func TestBoostedVoDBeatsBaseline(t *testing.T) {
	origin := httptest.NewServer(hls.NewOrigin(testVideo()))
	defer origin.Close()
	h := testHome(t, warmPhone("ph1"), warmPhone("ph2"))
	phones := h.AdmissibleDevices(2, 5*time.Second)
	if len(phones) != 2 {
		t.Fatal("phones not discovered")
	}

	base, err := h.BaselineVoD(context.Background(), origin.URL, "/clip/master.m3u8", 0.4, "q2")
	if err != nil {
		t.Fatal(err)
	}
	boost, err := h.BoostVoD(context.Background(), origin.URL, "/clip/master.m3u8", VoDOptions{
		Algo: scheduler.Greedy, Phones: phones, PrebufferFrac: 0.4, Quality: "q2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if boost.Total >= base.Total {
		t.Errorf("boosted total %v not faster than baseline %v", boost.Total, base.Total)
	}
	if boost.Prebuffer >= base.Prebuffer {
		t.Errorf("boosted prebuffer %v not faster than baseline %v", boost.Prebuffer, base.Prebuffer)
	}
	if boost.SchedulerReport == nil {
		t.Fatal("no scheduler report attached")
	}
	// The phones must actually have carried traffic.
	var phoneBytes int64
	for name, st := range boost.SchedulerReport.PerPath {
		if name != "adsl" {
			phoneBytes += st.Bytes
		}
	}
	if phoneBytes == 0 {
		t.Error("no bytes travelled via the phones")
	}
}

func TestBoostedVoDWithoutPhonesDegradesGracefully(t *testing.T) {
	origin := httptest.NewServer(hls.NewOrigin(testVideo()))
	defer origin.Close()
	h := testHome(t)
	res, err := h.BoostVoD(context.Background(), origin.URL, "/clip/master.m3u8", VoDOptions{
		Algo: scheduler.Greedy, PrebufferFrac: 0.4, Quality: "q1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != 8 {
		t.Errorf("segments = %d, want 8", res.Segments)
	}
}

func TestBoostedUploadBeatsBaseline(t *testing.T) {
	var received atomic.Int64
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mr, err := r.MultipartReader()
		if err != nil {
			http.Error(w, err.Error(), 400)
			return
		}
		for {
			part, err := mr.NextPart()
			if err != nil {
				break
			}
			_, _ = io.Copy(io.Discard, part)
			received.Add(1)
		}
		w.WriteHeader(http.StatusCreated)
	}))
	defer sink.Close()

	h := testHome(t, warmPhone("ph1"))
	phones := h.AdmissibleDevices(1, 5*time.Second)
	photos := GeneratePhotos(6, 7)
	// Shrink photos so the test stays quick at TimeScale 40.
	for i := range photos {
		photos[i].Data = photos[i].Data[:200*1024]
	}

	base, err := h.BaselineUpload(context.Background(), photos, sink.URL)
	if err != nil {
		t.Fatal(err)
	}
	boost, err := h.UploadPhotos(context.Background(), photos, UploadOptions{
		Algo: scheduler.Greedy, Phones: phones, TargetURL: sink.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if boost.Elapsed >= base.Elapsed {
		t.Errorf("boosted upload %v not faster than baseline %v", boost.Elapsed, base.Elapsed)
	}
	if n := received.Load(); n < 12 {
		t.Errorf("server received %d parts, want ≥12 (two transactions)", n)
	}
}

func TestUploadRequiresTarget(t *testing.T) {
	h := testHome(t)
	if _, err := h.UploadPhotos(context.Background(), GeneratePhotos(1, 1), UploadOptions{}); err == nil {
		t.Error("missing TargetURL accepted")
	}
}

func TestGeneratePhotosMatchesCorpus(t *testing.T) {
	photos := GeneratePhotos(300, 3)
	var sizes []float64
	for _, p := range photos {
		sizes = append(sizes, float64(len(p.Data))/(1024*1024))
	}
	var mean float64
	for _, s := range sizes {
		mean += s
	}
	mean /= float64(len(sizes))
	if mean < 2.2 || mean > 2.8 {
		t.Errorf("mean photo size = %.2f MB, want ≈2.5", mean)
	}
	if TotalBytes(photos) <= 0 {
		t.Error("TotalBytes should be positive")
	}
}

func TestColdStartPaysPromotionDelay(t *testing.T) {
	origin := httptest.NewServer(hls.NewOrigin(testVideo()))
	defer origin.Close()

	run := func(warm bool) time.Duration {
		h, err := NewHome(HomeConfig{
			DSLDown: 2e6, DSLUp: 0.5e6, TimeScale: testTimeScale(), Seed: 42,
			RRCPromotionDelay: 30 * time.Second, // exaggerated so it dominates
			Phones: []PhoneConfig{{
				Name: "ph1", Down: 2e6, Up: 1.5e6,
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		phones := h.AdmissibleDevices(1, 5*time.Second)
		if warm {
			// The paper's "H" mode: an ICMP train promotes the device to
			// DCH immediately before the transaction.
			phones[0].WarmUp()
		}
		res, err := h.BoostVoD(context.Background(), origin.URL, "/clip/master.m3u8", VoDOptions{
			Algo: scheduler.Greedy, Phones: phones, PrebufferFrac: 0.4, Quality: "q1",
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Total
	}
	cold := run(false)
	warm := run(true)
	if warm >= cold {
		t.Errorf("warm start %v not faster than cold %v under huge promotion delay", warm, cold)
	}
}

func TestScaleDuration(t *testing.T) {
	ts := testTimeScale()
	h := testHome(t)
	if got := h.ScaleDuration(time.Second); got != time.Duration(ts)*time.Second {
		t.Errorf("ScaleDuration = %v, want %vs", got, ts)
	}
	if h.TimeScale() != ts {
		t.Errorf("TimeScale = %v", h.TimeScale())
	}
}

// goroutinesSettleAt polls until the process runs at most limit
// goroutines (connection read/write loops exit asynchronously after a
// close) and returns the last count seen.
func goroutinesSettleAt(limit int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(3 * time.Second); n > limit && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// Every session shares the home's transports; the connections they pool
// — and the two goroutines behind each — must be reused, not added to,
// or a long-lived Home grows without bound. The second home
// plays BipBop over phones 4× slower than its line, so its endgame
// splits the segments they carry, and a carrier cut short must close its connection, not pool
// a half-read one.
func TestSessionsReleaseConnections(t *testing.T) {
	origin := httptest.NewServer(hls.NewOrigin(testVideo()))
	defer origin.Close()
	bipbop := httptest.NewServer(hls.NewOrigin(hls.BipBop()))
	defer bipbop.Close()
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusCreated)
	}))
	defer sink.Close()
	// Links fast enough that a session costs milliseconds.
	home := func(dslDown, phoneDown, timeScale float64) (*Home, []*Phone) {
		t.Helper()
		h, err := NewHome(HomeConfig{
			DSLDown: dslDown, DSLUp: 100e6, TimeScale: timeScale, Seed: 42,
			Phones: []PhoneConfig{
				{Name: "ph1", Down: phoneDown, Up: 100e6, Warm: true},
				{Name: "ph2", Down: phoneDown, Up: 100e6, Warm: true},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		phones := h.AdmissibleDevices(2, 5*time.Second)
		if len(phones) != 2 {
			t.Fatal("phones not discovered")
		}
		return h, phones
	}
	h, phones := home(100e6, 100e6, 100)
	// Rates that bind: a q1 segment takes 10 ms on the line, 40 on a
	// phone, and a session about 150 ms.
	slow, slowPhones := home(10e6, 2.5e6, 20)
	photos := GeneratePhotos(4, 7)
	for i := range photos {
		photos[i].Data = photos[i].Data[:32*1024]
	}
	splits := 0
	sessions := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := h.BoostVoD(context.Background(), origin.URL, "/clip/master.m3u8", VoDOptions{
				Algo: scheduler.Greedy, Phones: phones, PrebufferFrac: 0.4, Quality: "q1",
			}); err != nil {
				t.Fatal(err)
			}
			res, err := slow.BoostVoD(context.Background(), bipbop.URL, "/bipbop/master.m3u8", VoDOptions{
				Algo: scheduler.Greedy, Phones: slowPhones, PrebufferFrac: 0.2, Quality: "q1",
			})
			if err != nil {
				t.Fatal(err)
			}
			splits += res.SchedulerReport.Splits
			if _, err := h.UploadPhotos(context.Background(), photos, UploadOptions{
				Algo: scheduler.Greedy, Phones: phones, TargetURL: sink.URL,
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := h.BaselineVoD(context.Background(), origin.URL, "/clip/master.m3u8", 0.4, "q1"); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := runtime.NumGoroutine()
	sessions(5)
	// Some goroutines legitimately outlive a session (the phones' own
	// pooled upstream connections), so the yardstick is the count after
	// a few sessions, not the count before any.
	after5 := goroutinesSettleAt(before)
	const slack = 12
	sessions(45)
	if after50 := goroutinesSettleAt(after5 + slack); after50 > after5+slack {
		t.Errorf("goroutines: %d after 5 sessions, %d after 50 — sessions leak connections", after5, after50)
	}
	t.Logf("%d splits over 50 sessions with slow phones", splits)
	if splits == 0 {
		t.Error("no session with slow phones split a segment")
	}
}

// countDials counts the connections ph's transport dials to its proxy
// from now on. Call it before the phone carries a request.
func countDials(ph *Phone) *atomic.Int64 {
	var n atomic.Int64
	dial := ph.transport.DialContext
	ph.transport.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		n.Add(1)
		return dial(ctx, network, addr)
	}
	return &n
}

// Sessions reuse the home's connections: ten baseline sessions reach the
// origin over one ADSL connection, and ten sessions' fresh clients reach
// a phone's proxy over one Wi-Fi connection.
func TestSessionsReuseConnections(t *testing.T) {
	var accepts atomic.Int64
	origin := httptest.NewUnstartedServer(hls.NewOrigin(testVideo()))
	origin.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			accepts.Add(1)
		}
	}
	origin.Start()
	defer origin.Close()
	h, err := NewHome(HomeConfig{
		DSLDown: 100e6, DSLUp: 100e6, TimeScale: 100, Seed: 42, Phones: []PhoneConfig{warmPhone("ph1")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	for i := 0; i < 10; i++ {
		if _, err := h.BaselineVoD(context.Background(), origin.URL, "/clip/master.m3u8", 0.4, "q1"); err != nil {
			t.Fatal(err)
		}
	}
	if n := accepts.Load(); n != 1 {
		t.Errorf("ten baseline sessions opened %d ADSL connections, want 1", n)
	}

	ph := h.Phones[0]
	dials := countDials(ph)
	for i := 0; i < 10; i++ {
		resp, err := h.PhoneClient(ph).Get(origin.URL + "/clip/master.m3u8")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("ten sessions' clients reached %s's proxy over %d connections, want 1", ph.Name, n)
	}
}

// Two phones whose names have the same length draw Wi-Fi streams of
// their own: their hops stall at different byte offsets.
func TestPhonesDrawOwnWiFiStreams(t *testing.T) {
	h, err := NewHome(HomeConfig{
		DSLDown: 2e6, DSLUp: 0.5e6, WiFi: 1e12, Seed: 42, Phones: []PhoneConfig{warmPhone("ph1"), warmPhone("ph2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	go func() {
		for {
			c, err := sink.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, c); c.Close() }()
		}
	}()
	// stalls writes 32 MB through ph's Wi-Fi hop, one draw per 16 KB
	// write, on a clock that records each pause instead of sleeping it,
	// and returns the writes that paused: the first pays the hop's
	// latency, the rest stalled.
	stalls := func(ph *Phone) []int {
		t.Helper()
		clk := &rrcClock{}
		ph.wifi.Pipe.Clock = clk
		conn, err := ph.wifi.DialContext(context.Background(), "tcp", sink.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		chunk := make([]byte, 16<<10)
		var at []int
		for i := 0; i < 2048; i++ {
			before := clk.promotions()
			if _, err := conn.Write(chunk); err != nil {
				t.Fatal(err)
			}
			if clk.promotions() > before {
				at = append(at, i)
			}
		}
		return at
	}
	a, b := stalls(h.Phones[0]), stalls(h.Phones[1])
	t.Logf("ph1 paused at writes %v, ph2 at %v", a, b)
	if len(a) < 2 || len(b) < 2 {
		t.Fatal("a phone's Wi-Fi hop never stalled over 32 MB")
	}
	if slices.Equal(a, b) {
		t.Error("ph1 and ph2 stalled at the same byte offsets: they share one Wi-Fi random stream")
	}
}
