package transfer

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"threegol/internal/scheduler"
)

// patternServer serves /<letter>/<size>[/...]: size bytes of that letter,
// with a Content-Length unless the query says chunked, and cut off at half
// the declared length when the request carries X-Truncate.
func patternServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var letter string
		var size int
		if _, err := fmt.Sscanf(r.URL.Path, "/%1s/%d", &letter, &size); err != nil {
			http.NotFound(w, r)
			return
		}
		body := bytes.Repeat([]byte(letter), size)
		switch {
		case r.Header.Get("X-Truncate") != "":
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", size)
			buf.Write(body[:size/2])
			buf.Flush()
		case r.URL.Query().Has("chunked"):
			w.(http.Flusher).Flush() // headers out before the length is known
			w.Write(body)
		default:
			w.Header().Set("Content-Length", strconv.Itoa(size))
			w.Write(body)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func download(t *testing.T, p *DownloadPath, url string) {
	t.Helper()
	if _, err := p.Transfer(context.Background(), scheduler.Item{Name: url}); err != nil {
		t.Fatal(err)
	}
}

// A buffer that served a long body and was released must serve a shorter
// one of exactly its own length and content, and the other way round.
func TestCachingSinkReusesBuffersAcrossLengths(t *testing.T) {
	srv := patternServer(t)
	cache := NewCache()
	p := &DownloadPath{PathName: "adsl", Client: srv.Client(), Sink: CachingSink(cache)}
	for round, c := range []struct {
		letter string
		size   int
	}{{"a", 9000}, {"b", 300}, {"c", 9000}, {"d", 0}, {"e", 20000}} {
		urls := make([]string, 3)
		for i := range urls {
			urls[i] = fmt.Sprintf("%s/%s/%d/%d", srv.URL, c.letter, c.size, i)
			download(t, p, urls[i])
		}
		for _, u := range urls {
			got, ok := cache.Get(u)
			if !ok || !bytes.Equal(got, bytes.Repeat([]byte(c.letter), c.size)) {
				t.Fatalf("round %d: %s cached as %d bytes (ok=%v), want %d × %q",
					round, u, len(got), ok, c.size, c.letter)
			}
		}
		if cache.Len() != 3 || cache.Bytes() != int64(3*c.size) {
			t.Errorf("round %d: Len=%d Bytes=%d, want 3/%d", round, cache.Len(), cache.Bytes(), 3*c.size)
		}
		cache.Release()
		if cache.Len() != 0 || cache.Bytes() != 0 {
			t.Errorf("round %d: Len=%d Bytes=%d after Release", round, cache.Len(), cache.Bytes())
		}
	}
}

// A released buffer is there for the next session however many
// collections fall between the two: the free list is not a sync.Pool,
// so a session's allocations do not hang on when the collector runs.
func TestSegmentBuffersOutliveCollections(t *testing.T) {
	const size, n = 1 << 20, 4
	body := bytes.Repeat([]byte("s"), size)
	cache := NewCache()
	sink := CachingSink(cache)
	session := func() map[*byte]bool {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := sink(scheduler.Item{Name: strconv.Itoa(i)}, bytes.NewReader(body), size); err != nil {
				t.Fatal(err)
			}
		}
		used := map[*byte]bool{}
		for i := 0; i < n; i++ {
			b, _ := cache.Get(strconv.Itoa(i))
			used[&b[0]] = true
		}
		cache.Release()
		return used
	}
	first := session()
	runtime.GC()
	runtime.GC()
	for p := range session() {
		if !first[p] {
			t.Fatal("a segment buffer was made again after two collections")
		}
	}
}

// GRD's endgame can deliver a segment twice; the first body is the one a
// handler may already be writing, so it stays.
func TestCacheKeepsFirstBody(t *testing.T) {
	cache := NewCache()
	cache.Put("k", []byte("first"))
	cache.Put("k", []byte("second, and longer"))
	if b, _ := cache.Get("k"); string(b) != "first" {
		t.Errorf("Get = %q after a late duplicate Put, want the first body", b)
	}
	if cache.Len() != 1 || cache.Bytes() != 5 {
		t.Errorf("Len=%d Bytes=%d, want 1/5", cache.Len(), cache.Bytes())
	}

	// The same through the sink: the loser's pooled buffer is recycled
	// at once and must not disturb the winner's.
	srv := patternServer(t)
	p := &DownloadPath{PathName: "adsl", Client: srv.Client(), Sink: CachingSink(cache)}
	url := srv.URL + "/s/5000"
	download(t, p, url)
	first, _ := cache.Get(url)
	for i := 0; i < 3; i++ {
		download(t, p, url)
		download(t, p, fmt.Sprintf("%s/x/5000/%d", srv.URL, i)) // takes what the duplicate gave back
	}
	again, _ := cache.Get(url)
	if &again[0] != &first[0] || !bytes.Equal(first, bytes.Repeat([]byte("s"), 5000)) {
		t.Error("a late duplicate replaced or overwrote the first body")
	}
	if cache.Len() != 5 || cache.Bytes() != 5+4*5000 {
		t.Errorf("Len=%d Bytes=%d, want 5/%d", cache.Len(), cache.Bytes(), 5+4*5000)
	}
}

func TestCachingSinkChunkedOrigin(t *testing.T) {
	srv := patternServer(t)
	cache := NewCache()
	p := &DownloadPath{PathName: "adsl", Client: srv.Client(), Sink: CachingSink(cache)}
	url := srv.URL + "/c/70000?chunked"
	n, err := p.Transfer(context.Background(), scheduler.Item{Name: url})
	if err != nil || n != 70000 {
		t.Fatalf("Transfer = %d, %v", n, err)
	}
	if got, _ := cache.Get(url); !bytes.Equal(got, bytes.Repeat([]byte("c"), 70000)) {
		t.Errorf("chunked body cached as %d bytes", len(got))
	}
	cache.Release() // the grown slice is not the pool's: nothing to give back, nothing to break
	download(t, p, srv.URL+"/d/70000")
	if got, _ := cache.Get(srv.URL + "/d/70000"); !bytes.Equal(got, bytes.Repeat([]byte("d"), 70000)) {
		t.Errorf("sized body after a chunked one cached as %d bytes", len(got))
	}
}

// truncating marks every request so the origin cuts its body short.
type truncating struct{ rt http.RoundTripper }

func (tr truncating) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set("X-Truncate", "1")
	return tr.rt.RoundTrip(r)
}

// An origin that hangs up at half the declared length is a failed
// attempt that leaves nothing behind, and the item still arrives intact
// over another path.
func TestCachingSinkShortBody(t *testing.T) {
	srv := patternServer(t)
	cache := NewCache()
	sink := CachingSink(cache)
	bad := &DownloadPath{PathName: "bad", Sink: sink,
		Client: &http.Client{Transport: truncating{srv.Client().Transport}}}
	good := &DownloadPath{PathName: "good", Sink: sink, Client: srv.Client()}

	n, err := bad.Transfer(context.Background(), scheduler.Item{Name: srv.URL + "/t/4000"})
	if err == nil || n != 2000 {
		t.Fatalf("short body: Transfer = %d, %v; want 2000 bytes and an error", n, err)
	}
	if cache.Len() != 0 {
		t.Fatalf("short body left %d cache entries", cache.Len())
	}

	items := make([]scheduler.Item, 6)
	for i := range items {
		items[i] = scheduler.Item{ID: i, Name: fmt.Sprintf("%s/t/4000/%d", srv.URL, i), Size: 4000}
	}
	rep, err := scheduler.Run(context.Background(), scheduler.Greedy, items,
		[]scheduler.Path{bad, good}, scheduler.Options{DisableDuplication: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerPath["bad"].Items != 0 || rep.PerPath["good"].Items != len(items) {
		t.Errorf("delivered bad=%d good=%d, want 0/%d",
			rep.PerPath["bad"].Items, rep.PerPath["good"].Items, len(items))
	}
	for _, it := range items {
		if got, _ := cache.Get(it.Name); !bytes.Equal(got, bytes.Repeat([]byte("t"), 4000)) {
			t.Errorf("%s cached as %d bytes", it.Name, len(got))
		}
	}
}

func TestReleaseLeavesCallerSlicesAlone(t *testing.T) {
	srv := patternServer(t)
	cache := NewCache()
	p := &DownloadPath{PathName: "adsl", Client: srv.Client(), Sink: CachingSink(cache)}
	mine := bytes.Repeat([]byte("m"), 6000)
	cache.Put("mine", mine)
	download(t, p, srv.URL+"/p/6000")
	cache.Release()
	// Whatever the pool hands out next is written over; mine must not be
	// among it.
	for i := 0; i < 4; i++ {
		download(t, p, fmt.Sprintf("%s/q/6000/%d", srv.URL, i))
	}
	if !bytes.Equal(mine, bytes.Repeat([]byte("m"), 6000)) {
		t.Error("a slice passed to Put was written after Release")
	}
	if _, ok := cache.Get("mine"); ok {
		t.Error("Release left an entry behind")
	}
}

// Sessions share the pool, not their caches: while one session's readers
// stream its bodies, another stores, duplicates and releases. Run under
// -race; every reader must see the body its own session stored.
func TestCacheConcurrentSessions(t *testing.T) {
	srv := patternServer(t)
	const sessions, rounds, segs, readers = 3, 6, 4, 3
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			letter := string(rune('a' + s))
			for round := 0; round < rounds; round++ {
				size := 3000 + 1000*((s+round)%3)
				want := bytes.Repeat([]byte(letter), size)
				cache := NewCache()
				p := &DownloadPath{PathName: "adsl", Client: srv.Client(), Sink: CachingSink(cache)}
				var streaming sync.WaitGroup
				for i := 0; i < segs; i++ {
					url := fmt.Sprintf("%s/%s/%d/%d", srv.URL, letter, size, i)
					for r := 0; r < readers; r++ {
						streaming.Add(1)
						go func() {
							defer streaming.Done()
							got, err := cache.Wait(context.Background(), url)
							if err != nil || !bytes.Equal(got, want) {
								t.Errorf("session %d round %d: %s read as %d bytes, %v", s, round, url, len(got), err)
							}
						}()
					}
					for replica := 0; replica < 2; replica++ {
						if _, err := p.Transfer(context.Background(), scheduler.Item{Name: url}); err != nil {
							t.Error(err)
						}
					}
				}
				streaming.Wait()
				cache.Release()
			}
		}(s)
	}
	wg.Wait()
}
