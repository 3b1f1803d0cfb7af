package core

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"threegol/internal/cellular"
	"threegol/internal/fault"
	"threegol/internal/hls"
	"threegol/internal/scheduler"
)

// startVoDProxy serves the handler on a test server against the given
// origin with no shaping (unit-level behaviour checks).
func startVoDProxy(t *testing.T, origin string, routes []Route) *httptest.Server {
	t.Helper()
	h, err := NewVoDProxy(http.DefaultClient, routes, origin, scheduler.Greedy, scheduler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

func TestNewVoDProxyRejectsBadOrigin(t *testing.T) {
	if _, err := NewVoDProxy(nil, nil, "::bad::", scheduler.Greedy, scheduler.Options{}); err == nil {
		t.Error("bad origin URL accepted")
	}
}

func TestVoDProxyPassthroughNonPlaylist(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/other.bin" {
			w.Header().Set("X-Custom", "yes")
			w.Write([]byte("raw bytes"))
			return
		}
		http.NotFound(w, r)
	}))
	defer origin.Close()
	proxy := startVoDProxy(t, origin.URL, nil)

	resp, err := http.Get(proxy.URL + "/other.bin")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "raw bytes" || resp.Header.Get("X-Custom") != "yes" {
		t.Errorf("passthrough mangled response: %q %v", body, resp.Header)
	}
	// 404s pass through too.
	resp, err = http.Get(proxy.URL + "/missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestVoDProxyMasterPlaylistDoesNotTriggerPrefetch(t *testing.T) {
	video := hls.Video{Name: "v", Duration: 20, SegmentDur: 10,
		Qualities: []hls.Quality{{Name: "q1", Bitrate: 100_000}}}
	origin := httptest.NewServer(hls.NewOrigin(video))
	defer origin.Close()
	proxy := startVoDProxy(t, origin.URL, nil)

	resp, err := http.Get(proxy.URL + "/v/master.m3u8")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "EXT-X-STREAM-INF") {
		t.Fatalf("master playlist not forwarded: %q", body)
	}
	// A master playlist lists variants, not segments; the prefetch state
	// must stay empty until a media playlist passes through.
	resp, err = http.Get(proxy.URL + "/v/q1/seg0000.ts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n, _ := io.Copy(io.Discard, resp.Body)
	if n != 100_000*10/8 {
		t.Errorf("segment passthrough moved %d bytes", n)
	}
}

func TestVoDProxyMediaPlaylistPrefetchesOnce(t *testing.T) {
	var segRequests atomic.Int32
	video := hls.Video{Name: "v", Duration: 20, SegmentDur: 10,
		Qualities: []hls.Quality{{Name: "q1", Bitrate: 100_000}}}
	inner := hls.NewOrigin(video)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, ".ts") {
			segRequests.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	defer origin.Close()
	proxy := startVoDProxy(t, origin.URL, nil)

	// Fetch the media playlist twice: the prefetch must only run once.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(proxy.URL + "/v/q1/playlist.m3u8")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && segRequests.Load() < 2 {
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // would-be duplicate prefetch window
	if got := segRequests.Load(); got != 2 {
		t.Errorf("origin saw %d segment fetches, want exactly 2 (one prefetch)", got)
	}

	// The player's subsequent segment GET is served from the cache (no
	// third origin hit).
	resp, err := http.Get(proxy.URL + "/v/q1/seg0000.ts")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if n != 100_000*10/8 {
		t.Errorf("cached segment was %d bytes", n)
	}
	if got := segRequests.Load(); got != 2 {
		t.Errorf("cache miss: origin saw %d segment fetches", got)
	}
}

// A segment whose URI does not resolve is left out of the prefetch, and
// the rest are still prefetched and served: item IDs stay dense.
func TestVoDProxyPrefetchSkipsBadSegmentURI(t *testing.T) {
	seg := strings.Repeat("s", 10_000)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v/playlist.m3u8":
			io.WriteString(w, "#EXTM3U\n#EXT-X-TARGETDURATION:10\n#EXTINF:10,\nseg%zz.ts\n#EXTINF:10,\nseg1.ts\n#EXT-X-ENDLIST\n")
		case "/v/seg1.ts":
			io.WriteString(w, seg)
		default:
			http.NotFound(w, r)
		}
	}))
	defer origin.Close()
	proxy := startVoDProxy(t, origin.URL, nil)

	resp, err := http.Get(proxy.URL + "/v/playlist.m3u8")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = http.Get(proxy.URL + "/v/seg1.ts")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != seg {
		t.Fatalf("seg1.ts: status %d, %d bytes (%.60q); want 200 and its %d bytes",
			resp.StatusCode, len(body), body, len(seg))
	}
}

func TestVoDProxyUnreachableOrigin(t *testing.T) {
	proxy := startVoDProxy(t, "http://127.0.0.1:1", nil)
	resp, err := http.Get(proxy.URL + "/v/master.m3u8")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}
}

func TestBaselineVoDBadQuality(t *testing.T) {
	origin := httptest.NewServer(hls.NewOrigin(testVideo()))
	defer origin.Close()
	h := testHome(t)
	if _, err := h.BaselineVoD(context.Background(), origin.URL, "/clip/master.m3u8", 0.2, "q99"); err == nil {
		t.Error("unknown quality accepted")
	}
}

// The bench's vod_shaped session in virtual time: 20 q4 segments over
// loc1's ADSL line and two phones at TimeScale 20. Whole segments end
// at 797 ms, where ADSL's 14th segment lands; the fluid floor is 727
// ms. Paths that carry byte ranges let the endgame split the last
// segments in flight by rate, and the session ends near that floor.
func TestSplitShortensVoDShaped(t *testing.T) {
	const scale = 20
	loc, ok := cellular.FindLocation(cellular.EvalLocations, "loc1")
	if !ok {
		t.Fatal("loc1 missing")
	}
	dl, _ := cellular.RadioCaps(loc.SignalDBm)
	phoneDown := dl * cellular.DefaultParams().FadingMean
	video := hls.BipBop()
	q, _ := video.QualityByName("q4")
	sizes := make([]int64, video.NumSegments())
	for i := range sizes {
		sizes[i] = int64(video.SegmentSize(q, i))
	}
	elapsed := func(ranged bool) (time.Duration, *fault.SimReport) {
		t.Helper()
		paths := []fault.SimPath{
			{Name: "adsl", Rate: loc.DSLDown * scale / 8, Ranged: ranged},
			{Name: "ph1", Rate: phoneDown * scale / 8, Ranged: ranged},
			{Name: "ph2", Rate: phoneDown * scale / 8, Ranged: ranged},
		}
		rep, err := fault.Simulate(fault.SimConfig{Paths: paths, Items: sizes, Plan: fault.NewPlan()})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != len(sizes) {
			t.Fatalf("%d of %d segments delivered", rep.Completed, len(sizes))
		}
		return time.Duration(rep.Elapsed * float64(time.Second)), rep
	}
	whole, wrep := elapsed(false)
	split, srep := elapsed(true)
	t.Logf("whole segments %v (%d duplicates, %d B waste); split %v (%d splits, %d duplicates, %d B waste)",
		whole, wrep.Duplicates, wrep.DuplicateWaste, split, srep.Splits, srep.Duplicates, srep.DuplicateWaste)
	if split > 750*time.Millisecond {
		t.Errorf("with ranged paths the session ends at %v, want ≤ 750 ms (whole segments: %v)", split, whole)
	}
	if srep.Splits == 0 || srep.Duplicates+srep.Splits > wrep.Duplicates {
		t.Errorf("%d splits and %d duplicates, against %d duplicates with whole segments: want splits, and no more requests",
			srep.Splits, srep.Duplicates, wrep.Duplicates)
	}
}

// A segment the prefetch transaction gives up on must fail the player's
// GET for it at once, not hold it until the player's deadline.
func TestFailedPrefetchFailsThePlayer(t *testing.T) {
	video := hls.Video{Name: "v", Duration: 40, SegmentDur: 10,
		Qualities: []hls.Quality{{Name: "q1", Bitrate: 100_000}}}
	o := hls.NewOrigin(video)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/seg0002.ts") {
			http.Error(w, "broken", http.StatusInternalServerError)
			return
		}
		o.ServeHTTP(w, r)
	}))
	defer origin.Close()
	proxy := startVoDProxy(t, origin.URL, nil)

	const deadline = 3 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	t0 := time.Now()
	_, err := (&hls.Player{Client: &http.Client{}, PrebufferFrac: 0.2}).Play(ctx, proxy.URL+"/v/master.m3u8", "q1")
	took := time.Since(t0)
	if err == nil || !strings.Contains(err.Error(), "seg0002.ts") {
		t.Fatalf("Play = %v, want an error naming seg0002.ts", err)
	}
	if took > deadline/3 {
		t.Errorf("Play failed after %v of its %v deadline: %v", took, deadline, err)
	}
}
