package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"threegol/internal/hls"
	"threegol/internal/scheduler"
)

// bufferVideo has two renditions of clearly different segment sizes
// (125 kB and 461 kB), so back-to-back sessions reuse segment buffers
// at lengths other than the one they were made for.
func bufferVideo() hls.Video {
	return hls.Video{
		Name: "clip", Duration: 60, SegmentDur: 5,
		Qualities: []hls.Quality{{Name: "q1", Bitrate: 200_000}, {Name: "q4", Bitrate: 738_000}},
	}
}

func fetch(url string) (*http.Response, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return resp, body, nil
}

// playVerified plays one rendition through the proxy at base the way a
// player does — media playlist, then every segment in order — and
// compares each segment, and its Content-Length, with what the origin
// serves directly. The origin's bodies are windows of one tape: no two
// of a rendition may be the same bytes, or a buffer served for the wrong
// segment would pass.
func playVerified(base, origin string, v hls.Video, quality string) error {
	dir := "/" + v.Name + "/" + quality + "/"
	_, playlist, err := fetch(base + dir + "playlist.m3u8")
	if err != nil {
		return err
	}
	parsed, err := hls.Parse(bytes.NewReader(playlist))
	if err != nil || parsed.Kind != hls.KindMedia || len(parsed.Media.Segments) != v.NumSegments() {
		return fmt.Errorf("%s playlist through the proxy: %v", quality, err)
	}
	served := map[[sha256.Size]byte]string{}
	for _, seg := range parsed.Media.Segments {
		_, want, err := fetch(origin + dir + seg.URI)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(want)
		if other, dup := served[sum]; dup {
			return fmt.Errorf("%s: the origin serves the same bytes for %s and %s", quality, other, seg.URI)
		}
		served[sum] = seg.URI
		resp, got, err := fetch(base + dir + seg.URI)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s %s: proxy served %d bytes that differ from the origin's %d", quality, seg.URI, len(got), len(want))
		}
		if resp.ContentLength != int64(len(want)) {
			return fmt.Errorf("%s %s: Content-Length %d on a cached segment of %d bytes", quality, seg.URI, resp.ContentLength, len(want))
		}
	}
	return nil
}

// plainRoutes are extra paths with no shaping and no device proxy: enough
// for GRD to run three replicas and duplicate in the endgame.
func plainRoutes() []Route {
	return []Route{{Name: "r1", Client: &http.Client{}}, {Name: "r2", Client: &http.Client{}}}
}

// The bench counts bytes; nothing else checks what is in them. Every
// segment a session serves must be the origin's, whether the proxy is
// the exported handler that never releases or a BoostVoD-style session
// whose buffers the next session — of another rendition — takes over.
func TestVoDSegmentsMatchOrigin(t *testing.T) {
	v := bufferVideo()
	origin := httptest.NewServer(hls.NewOrigin(v))
	defer origin.Close()

	t.Run("NewVoDProxy", func(t *testing.T) {
		proxy := startVoDProxy(t, origin.URL, plainRoutes())
		if err := playVerified(proxy.URL, origin.URL, v, "q4"); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("sessions", func(t *testing.T) {
		for _, quality := range []string{"q4", "q1", "q4", "q1"} {
			if err := playSession(origin.URL, v, quality); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		// Two residences' sessions share the process-wide pool.
		var wg sync.WaitGroup
		for _, qualities := range [][]string{{"q4", "q1", "q4"}, {"q1", "q4", "q1"}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, quality := range qualities {
					if err := playSession(origin.URL, v, quality); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// playSession is Home.BoostVoD's session with playVerified for a player:
// a fresh proxy, listen, play, close.
func playSession(origin string, v hls.Video, quality string) error {
	vp, err := newVoDProxy(&http.Client{}, plainRoutes(), origin, scheduler.Greedy, scheduler.Options{})
	if err != nil {
		return err
	}
	base, err := vp.listen()
	if err != nil {
		return err
	}
	err = playVerified(base, origin, v, quality)
	vp.close()
	if n := vp.cache.Len(); err == nil && n != 0 {
		err = fmt.Errorf("%s: %d cache entries after close", quality, n)
	}
	return err
}

// stalledWriter is a player that has stopped reading: Write parks with
// the cached slice in hand until released.
type stalledWriter struct {
	header  http.Header
	inWrite chan []byte
	resume  chan struct{}
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.inWrite <- p
	<-w.resume
	return len(p), nil
}

// close must not recycle a segment buffer under a handler that is still
// writing it out: the drain of in-flight handlers comes before Release.
func TestCloseDrainsHandlersBeforeRelease(t *testing.T) {
	v := bufferVideo()
	origin := httptest.NewServer(hls.NewOrigin(v))
	defer origin.Close()
	vp, err := newVoDProxy(&http.Client{}, nil, origin.URL, scheduler.Greedy, scheduler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	vp.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/clip/q4/playlist.m3u8", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("playlist: %d", rec.Code)
	}
	<-vp.done // all twelve segments cached
	_, want, err := fetch(origin.URL + "/clip/q4/seg0003.ts")
	if err != nil {
		t.Fatal(err)
	}

	w := &stalledWriter{header: http.Header{}, inWrite: make(chan []byte), resume: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		vp.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/clip/q4/seg0003.ts", nil))
	}()
	held := <-w.inWrite

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		vp.close()
	}()
	// Once close has shut the door it can only be waiting for the
	// handler; give a misplaced Release the time to show itself.
	for shut := false; !shut; runtime.Gosched() {
		vp.mu.Lock()
		shut = vp.closed
		vp.mu.Unlock()
	}
	time.Sleep(50 * time.Millisecond)
	select {
	case <-closed:
		t.Fatal("close returned with a handler still in Write")
	default:
	}
	if n := vp.cache.Len(); n != v.NumSegments() {
		t.Fatalf("cache holds %d of %d segments while a handler is writing: released under it", n, v.NumSegments())
	}
	if !bytes.Equal(held, want) {
		t.Fatal("the slice the handler is writing changed before it returned")
	}

	// A request arriving now belongs to no session.
	late := httptest.NewRecorder()
	vp.ServeHTTP(late, httptest.NewRequest(http.MethodGet, "/clip/q4/seg0004.ts", nil))
	if late.Code != http.StatusServiceUnavailable {
		t.Errorf("request after close: %d, want 503", late.Code)
	}

	close(w.resume)
	<-served
	<-closed
	if n := vp.cache.Len(); n != 0 {
		t.Errorf("%d cache entries after close", n)
	}
}

// A session that ends early takes its prefetch transaction with it: once
// BoostVoD has returned, nothing keeps downloading the rest of the video
// into the links the next session will use.
func TestBoostVoDCancelStopsPrefetch(t *testing.T) {
	var segRequests atomic.Int32
	firstSegment := make(chan struct{})
	var once sync.Once
	inner := hls.NewOrigin(testVideo())
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, ".ts") {
			segRequests.Add(1)
			once.Do(func() { close(firstSegment) })
		}
		inner.ServeHTTP(w, r)
	}))
	defer origin.Close()
	// 8 segments of 250 kB over 3 × 2 Mbit/s at TimeScale 4: about a
	// second of prefetching to interrupt.
	h, err := NewHome(HomeConfig{
		DSLDown: 2e6, DSLUp: 0.5e6, TimeScale: 4, Seed: 42,
		Phones: []PhoneConfig{warmPhone("ph1"), warmPhone("ph2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	phones := h.AdmissibleDevices(2, 5*time.Second)
	if len(phones) != 2 {
		t.Fatal("phones not discovered")
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-firstSegment
		cancel()
	}()
	_, err = h.BoostVoD(ctx, origin.URL, "/clip/master.m3u8", VoDOptions{
		Algo: scheduler.Greedy, Phones: phones, PrebufferFrac: 0.4, Quality: "q2",
	})
	if err == nil {
		t.Fatal("cancelled session reported success")
	}
	atReturn := segRequests.Load()
	time.Sleep(300 * time.Millisecond)
	if later := segRequests.Load(); later != atReturn {
		t.Errorf("origin saw %d segment requests when BoostVoD returned and %d after: the transaction outlived the session", atReturn, later)
	}
	if atReturn >= int32(testVideo().NumSegments()) {
		t.Errorf("all %d segments were requested: the session was not interrupted", atReturn)
	}
	// The phones' pooled upstream connections may stay; a transaction's
	// path workers and their transfers may not.
	const slack = 8
	if n := goroutinesSettleAt(before + slack); n > before+slack {
		t.Errorf("goroutines: %d before the session, %d after it was cancelled", before, n)
	}
}

// The ratchet behind the segment-buffer work: at steady state a boosted
// session allocates a small fraction of the video it moves (18.45 MB for
// BipBop q4; 109 MB were allocated per session before buffers were sized
// and recycled, about 0.6 MB after). Sessions that share the home's
// transports take 0.43–0.46 MB on 2 vCPUs, those that built their own
// 0.49–0.51 MB. In about 3 runs of 100 a measured session is the
// process's first to launch an endgame duplicate, whose replicas each
// take a new segment buffer (about 1.9 MB for two) that the free list
// then keeps; those runs read 0.56–0.70 MB, and the budget is the worst
// of them plus 10 %.
func TestBoostVoDAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector (and sync.Pool drops at random)")
	}
	origin := httptest.NewServer(hls.NewOrigin(hls.BipBop()))
	defer origin.Close()
	const unbound = 1e12
	h, err := NewHome(HomeConfig{
		DSLDown: unbound, DSLUp: unbound, WiFi: unbound, TimeScale: 1e6, Seed: 42,
		Phones: []PhoneConfig{
			{Name: "ph1", Down: unbound, Up: unbound, Warm: true},
			{Name: "ph2", Down: unbound, Up: unbound, Warm: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	phones := h.AdmissibleDevices(2, 5*time.Second)
	if len(phones) != 2 {
		t.Fatal("phones not discovered")
	}
	sessions := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			res, err := h.BoostVoD(context.Background(), origin.URL, "/bipbop/master.m3u8", VoDOptions{
				Algo: scheduler.Greedy, Phones: phones, PrebufferFrac: 0.2, Quality: "q4",
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(hls.BipBop().TotalBytes(hls.BipBopQualities[3])); res.Bytes != want {
				t.Fatalf("session moved %d bytes, want %d", res.Bytes, want)
			}
		}
	}
	sessions(3)
	const measured = 8
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sessions(measured)
	runtime.ReadMemStats(&m1)
	perSession := float64(m1.TotalAlloc-m0.TotalAlloc) / measured / 1e6
	t.Logf("%.3f MB allocated per session", perSession)
	if perSession >= 0.78 {
		t.Errorf("%.3f MB allocated per session, budget 0.78 MB", perSession)
	}
}
