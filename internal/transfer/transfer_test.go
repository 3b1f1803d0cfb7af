package transfer

import (
	"bytes"
	"context"
	"errors"
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

	"threegol/internal/scheduler"
)

func originServer(t *testing.T, size int) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/missing") {
			http.NotFound(w, r)
			return
		}
		w.Write(bytes.Repeat([]byte(r.URL.Path[1:2]), size))
	}))
}

func TestDownloadPathTransfers(t *testing.T) {
	srv := originServer(t, 1000)
	defer srv.Close()
	p := &DownloadPath{PathName: "adsl", Client: srv.Client()}
	n, err := p.Transfer(context.Background(), scheduler.Item{ID: 0, Name: srv.URL + "/a"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Errorf("bytes = %d, want 1000", n)
	}
	if p.Name() != "adsl" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestDownloadPathStatusError(t *testing.T) {
	srv := originServer(t, 10)
	defer srv.Close()
	p := &DownloadPath{PathName: "adsl", Client: srv.Client()}
	if _, err := p.Transfer(context.Background(), scheduler.Item{Name: srv.URL + "/missing"}); err == nil {
		t.Error("404 did not error")
	}
	if _, err := p.Transfer(context.Background(), scheduler.Item{Name: "http://127.0.0.1:1/x"}); err == nil {
		t.Error("refused connection did not error")
	}
	if _, err := p.Transfer(context.Background(), scheduler.Item{Name: "::bad::"}); err == nil {
		t.Error("bad URL did not error")
	}
}

func TestDownloadPathCancellation(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(200)
		w.(http.Flusher).Flush()
		for i := 0; i < 100; i++ {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(50 * time.Millisecond):
				w.Write(bytes.Repeat([]byte("x"), 100))
				w.(http.Flusher).Flush()
			}
		}
	}))
	defer slow.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(120 * time.Millisecond)
		cancel()
	}()
	p := &DownloadPath{PathName: "adsl", Client: slow.Client()}
	_, err := p.Transfer(ctx, scheduler.Item{Name: slow.URL + "/x"})
	if err == nil {
		t.Fatal("cancelled transfer reported success")
	}
	if ctx.Err() == nil {
		t.Fatal("test bug: context not cancelled")
	}
}

func TestDownloadPathCachingSink(t *testing.T) {
	srv := originServer(t, 64)
	defer srv.Close()
	cache := NewCache()
	p := &DownloadPath{PathName: "adsl", Client: srv.Client(), Sink: CachingSink(cache)}
	url := srv.URL + "/z"
	if _, err := p.Transfer(context.Background(), scheduler.Item{Name: url}); err != nil {
		t.Fatal(err)
	}
	body, ok := cache.Get(url)
	if !ok || len(body) != 64 {
		t.Fatalf("cache miss after transfer: ok=%v len=%d", ok, len(body))
	}
	if cache.Len() != 1 || cache.Bytes() != 64 {
		t.Errorf("Len=%d Bytes=%d, want 1/64", cache.Len(), cache.Bytes())
	}
}

func TestCacheWaitBlocksUntilPut(t *testing.T) {
	cache := NewCache()
	got := make(chan []byte, 1)
	go func() {
		b, err := cache.Wait(context.Background(), "k")
		if err != nil {
			t.Error(err)
		}
		got <- b
	}()
	time.Sleep(20 * time.Millisecond)
	cache.Put("k", []byte("hello"))
	select {
	case b := <-got:
		if string(b) != "hello" {
			t.Errorf("Wait returned %q", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait never returned")
	}
}

func TestCacheWaitImmediateWhenPresent(t *testing.T) {
	cache := NewCache()
	cache.Put("k", []byte("v"))
	b, err := cache.Wait(context.Background(), "k")
	if err != nil || string(b) != "v" {
		t.Errorf("Wait = %q, %v", b, err)
	}
}

func TestCacheWaitHonoursCancellation(t *testing.T) {
	cache := NewCache()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := cache.Wait(ctx, "never"); err == nil {
		t.Error("Wait returned without Put or cancellation")
	}
}

// Fail ends the waits for what will not come, now and later, and leaves
// what was stored; Release clears it.
func TestCacheFailEndsWaits(t *testing.T) {
	c := NewCache()
	c.Put("in", []byte("body"))
	errGone := errors.New("gone")
	waited := make(chan error, 1)
	go func() {
		_, err := c.Wait(context.Background(), "out")
		waited <- err
	}()
	for {
		c.mu.Lock()
		n := len(c.waiters["out"])
		c.mu.Unlock()
		if n > 0 {
			break
		}
		runtime.Gosched()
	}
	c.Fail(errGone)
	if err := <-waited; err != errGone {
		t.Errorf("a waiter got %v, want Fail's error", err)
	}
	if _, err := c.Wait(context.Background(), "later"); err != errGone {
		t.Errorf("a Wait after Fail got %v, want Fail's error", err)
	}
	if b, err := c.Wait(context.Background(), "in"); err != nil || string(b) != "body" {
		t.Errorf("a stored body after Fail: %q, %v", b, err)
	}
	c.Release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Wait(ctx, "later"); err != context.Canceled {
		t.Errorf("after Release, Wait got %v, want its context's error", err)
	}
}

func TestCacheConcurrentWaiters(t *testing.T) {
	cache := NewCache()
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := cache.Wait(context.Background(), "k")
			if err != nil || string(b) != "x" {
				errs <- fmt.Errorf("got %q, %v", b, err)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	cache.Put("k", []byte("x"))
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// uploadServer records multipart uploads.
type uploadServer struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newUploadServer(t *testing.T) (*uploadServer, *httptest.Server) {
	t.Helper()
	us := &uploadServer{files: map[string][]byte{}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		mr, err := r.MultipartReader()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for {
			part, err := mr.NextPart()
			if err == io.EOF {
				break
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			body, err := io.ReadAll(part)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			us.mu.Lock()
			us.files[part.FileName()] = body
			us.mu.Unlock()
		}
		w.WriteHeader(http.StatusCreated)
	}))
	return us, srv
}

func bytesSource(content map[string][]byte) ItemSource {
	return func(item scheduler.Item) (io.ReadCloser, error) {
		b, ok := content[item.Name]
		if !ok {
			return nil, fmt.Errorf("no content for %s", item.Name)
		}
		return io.NopCloser(bytes.NewReader(b)), nil
	}
}

func TestUploadPathTransfers(t *testing.T) {
	us, srv := newUploadServer(t)
	defer srv.Close()
	content := map[string][]byte{"p1.jpg": bytes.Repeat([]byte("j"), 2048)}
	p := &UploadPath{
		PathName:  "phone1",
		Client:    srv.Client(),
		TargetURL: srv.URL + "/upload",
		Source:    bytesSource(content),
	}
	n, err := p.Transfer(context.Background(), scheduler.Item{ID: 0, Name: "p1.jpg", Size: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2048 {
		t.Errorf("bytes = %d, want 2048", n)
	}
	us.mu.Lock()
	defer us.mu.Unlock()
	if got := us.files["p1.jpg"]; !bytes.Equal(got, content["p1.jpg"]) {
		t.Errorf("uploaded %d bytes, want 2048 intact", len(got))
	}
}

func TestUploadPathErrors(t *testing.T) {
	_, srv := newUploadServer(t)
	defer srv.Close()
	noSource := &UploadPath{PathName: "p", Client: srv.Client(), TargetURL: srv.URL}
	if _, err := noSource.Transfer(context.Background(), scheduler.Item{Name: "x"}); err == nil {
		t.Error("missing Source did not error")
	}
	p := &UploadPath{
		PathName: "p", Client: srv.Client(), TargetURL: srv.URL,
		Source: bytesSource(map[string][]byte{}),
	}
	if _, err := p.Transfer(context.Background(), scheduler.Item{Name: "nope"}); err == nil {
		t.Error("missing item content did not error")
	}
	bad := &UploadPath{
		PathName: "p", Client: srv.Client(), TargetURL: "http://127.0.0.1:1/",
		Source: bytesSource(map[string][]byte{"x": []byte("y")}),
	}
	if _, err := bad.Transfer(context.Background(), scheduler.Item{Name: "x"}); err == nil {
		t.Error("unreachable target did not error")
	}
}

func TestUploadThroughSchedulerEndToEnd(t *testing.T) {
	// A full transaction: 6 photos over 2 upload paths with the greedy
	// scheduler; every photo must arrive intact exactly once.
	us, srv := newUploadServer(t)
	defer srv.Close()
	content := map[string][]byte{}
	items := make([]scheduler.Item, 6)
	for i := range items {
		name := fmt.Sprintf("photo%d.jpg", i)
		content[name] = bytes.Repeat([]byte{byte('a' + i)}, 1000+i*100)
		items[i] = scheduler.Item{ID: i, Name: name, Size: int64(len(content[name]))}
	}
	mkPath := func(n string) scheduler.Path {
		return &UploadPath{
			PathName: n, Client: srv.Client(), TargetURL: srv.URL, Source: bytesSource(content),
		}
	}
	rep, err := scheduler.Run(context.Background(), scheduler.Greedy, items,
		[]scheduler.Path{mkPath("adsl"), mkPath("phone1")}, scheduler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	us.mu.Lock()
	defer us.mu.Unlock()
	for name, want := range content {
		if got := us.files[name]; !bytes.Equal(got, want) {
			t.Errorf("%s corrupted or missing (%d bytes, want %d)", name, len(got), len(want))
		}
	}
	var won int
	for _, st := range rep.PerPath {
		won += st.Items
	}
	if won != 6 {
		t.Errorf("items won = %d, want 6", won)
	}
}

func TestDownloadThroughSchedulerEndToEnd(t *testing.T) {
	srv := originServer(t, 500)
	defer srv.Close()
	cache := NewCache()
	items := make([]scheduler.Item, 8)
	for i := range items {
		items[i] = scheduler.Item{ID: i, Name: fmt.Sprintf("%s/f%d", srv.URL, i), Size: 500}
	}
	mk := func(n string) scheduler.Path {
		return &DownloadPath{PathName: n, Client: srv.Client(), Sink: CachingSink(cache)}
	}
	_, err := scheduler.Run(context.Background(), scheduler.MinTime, items,
		[]scheduler.Path{mk("adsl"), mk("ph1"), mk("ph2")}, scheduler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 8 {
		t.Errorf("cache has %d entries, want 8", cache.Len())
	}
}

// Both path types must expose byte progress so the scheduler's stall
// watchdog can guard real HTTP transfers.
var (
	_ scheduler.ProgressPath = (*DownloadPath)(nil)
	_ scheduler.ProgressPath = (*UploadPath)(nil)
)

func TestDownloadPathReportsProgress(t *testing.T) {
	srv := originServer(t, 4096)
	defer srv.Close()
	p := &DownloadPath{PathName: "adsl", Client: srv.Client()}
	var mu sync.Mutex
	var totals []int64
	n, err := p.TransferProgress(context.Background(),
		scheduler.Item{ID: 0, Name: srv.URL + "/a"},
		func(total int64) { mu.Lock(); totals = append(totals, total); mu.Unlock() })
	if err != nil || n != 4096 {
		t.Fatalf("TransferProgress = %d, %v", n, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(totals) == 0 || totals[len(totals)-1] != 4096 {
		t.Fatalf("progress totals %v; want cumulative ending at 4096", totals)
	}
	for i := 1; i < len(totals); i++ {
		if totals[i] <= totals[i-1] {
			t.Fatalf("progress not strictly increasing: %v", totals)
		}
	}
}

func TestUploadPathReportsProgress(t *testing.T) {
	_, srv := newUploadServer(t)
	defer srv.Close()
	content := map[string][]byte{"p1.jpg": bytes.Repeat([]byte("j"), 2048)}
	p := &UploadPath{
		PathName:  "phone1",
		Client:    srv.Client(),
		TargetURL: srv.URL + "/upload",
		Source:    bytesSource(content),
	}
	var mu sync.Mutex
	var last int64
	n, err := p.TransferProgress(context.Background(),
		scheduler.Item{ID: 0, Name: "p1.jpg", Size: 2048},
		func(total int64) { mu.Lock(); last = total; mu.Unlock() })
	if err != nil || n != 2048 {
		t.Fatalf("TransferProgress = %d, %v", n, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if last != 2048 {
		t.Fatalf("final progress total = %d; want 2048", last)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// A cancel can reach the caller as something other than Do's context
// error: a hop that saw the half-sent body answers 502 before the
// client's transport has noticed. The upload is a cancelled one all the
// same, and must say so.
func TestUploadPathCancelOutranksStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		http.Error(w, "upstream error", http.StatusBadGateway)
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelOnResponse := false
	p := &UploadPath{
		PathName: "phone1", TargetURL: srv.URL,
		Source: bytesSource(map[string][]byte{"p1.jpg": bytes.Repeat([]byte("j"), 1<<16)}),
		// The cancel lands once the response is the client's.
		Client: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			resp, err := srv.Client().Transport.RoundTrip(r)
			if cancelOnResponse {
				cancel()
			}
			return resp, err
		})},
	}
	item := scheduler.Item{Name: "p1.jpg", Size: 1 << 16}
	if _, err := p.Transfer(ctx, item); err == nil || !strings.Contains(err.Error(), "status 502") {
		t.Errorf("502 without a cancel returned %v, want a status error", err)
	}
	cancelOnResponse = true
	if _, err := p.Transfer(ctx, item); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled upload answered 502 returned %v, want context.Canceled", err)
	}
}

// closeCounter is an item's content that counts its Close calls.
type closeCounter struct {
	io.Reader
	closes *atomic.Int32
}

func (c closeCounter) Close() error {
	c.closes.Add(1)
	return nil
}

// However an upload ends — delivered, cancelled mid-body as an endgame
// loser is, or refused by a server that answers 400 before it reads —
// and whether it carries a whole photo or a piece of one, it gives back
// what it took: once the client's idle connections close
// the goroutines stand where they stood, and every source was closed
// exactly once (the transport closes the body, and may try more than
// once on its error paths).
func TestUploadPathReleasesEverything(t *testing.T) {
	const size = 4 << 20 // more than loopback's socket buffers hold
	photo := make([]byte, size)
	stored := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusCreated)
	}))
	defer stored.Close()
	refused := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "not here", http.StatusBadRequest)
	}))
	defer refused.Close()
	var cancelMidBody atomic.Pointer[context.CancelFunc]
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf := make([]byte, 64<<10)
		if _, err := io.ReadFull(r.Body, buf); err == nil {
			(*cancelMidBody.Load())()
		}
		io.Copy(io.Discard, r.Body) // until the cancelled client's conn goes
	}))
	defer slow.Close()

	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	before := runtime.NumGoroutine()
	var closes []*atomic.Int32
	upload := func(url string, cancelled, pieced bool) error {
		t.Helper()
		n := new(atomic.Int32)
		closes = append(closes, n)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cancelMidBody.Store(&cancel)
		p := &UploadPath{
			PathName: "ph1", Client: client, TargetURL: url,
			Source: func(scheduler.Item) (io.ReadCloser, error) {
				return closeCounter{bytes.NewReader(photo), n}, nil
			},
		}
		item := scheduler.Item{Name: "IMG_0001.jpg", Size: size}
		var err error
		if pieced {
			_, err = p.TransferRange(ctx, item, piece(1<<20, size), nil)
		} else {
			_, err = p.Transfer(ctx, item)
		}
		if cancelled && !errors.Is(err, context.Canceled) {
			t.Errorf("upload cancelled mid-body returned %v, want context.Canceled", err)
		}
		return err
	}
	for i := 0; i < 6; i++ {
		pieced := i%2 == 1 // a piece from 1 MB on, the source read up to it
		if err := upload(stored.URL, false, pieced); err != nil {
			t.Fatalf("upload to a storing server: %v", err)
		}
		if err := upload(refused.URL, false, pieced); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("upload to a refusing server returned %v, want a 400", err)
		}
		upload(slow.URL, true, pieced)
	}
	tr.CloseIdleConnections()

	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(3 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > before {
		t.Errorf("goroutines: %d before the uploads, %d after", before, n)
	}
	for i, c := range closes {
		if got := c.Load(); got != 1 {
			t.Errorf("upload %d closed its source %d times, want once", i, got)
		}
	}
}

// rangeOrigin serves one body of size bytes at every path, honouring
// Range through http.ServeContent (test code: the repo's origins must
// not use it, for its copy buffer).
func rangeOrigin(t *testing.T, size int) (*httptest.Server, []byte) {
	t.Helper()
	body := make([]byte, size)
	for i := range body {
		body[i] = byte(i * 7)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(body))
	}))
	t.Cleanup(srv.Close)
	return srv, body
}

// piece is the window [off, end) of Body 1.
func piece(off, end int64) *scheduler.Range {
	r := &scheduler.Range{Off: off, Body: 1}
	r.SetEnd(end)
	return r
}

// Two pieces of one item, each a Range GET, fill the item's one buffer,
// and the cache holds the body only once both are in.
func TestDownloadPathPiecesFillOneBuffer(t *testing.T) {
	srv, body := rangeOrigin(t, 100_000)
	cache := NewCache()
	p := &DownloadPath{PathName: "adsl", Client: srv.Client(), Sink: CachingSink(cache)}
	item := scheduler.Item{Name: srv.URL + "/seg"}
	if n, err := p.TransferRange(context.Background(), item, piece(30_000, 100_000), nil); err != nil || n != 70_000 {
		t.Fatalf("tail piece: %d, %v", n, err)
	}
	if _, ok := cache.Get(item.Name); ok {
		t.Fatal("the body is cached with its head missing")
	}
	var seen int64
	if n, err := p.TransferRange(context.Background(), item, piece(0, 30_000), func(total int64) { seen = total }); err != nil || n != 30_000 || seen != n {
		t.Fatalf("head piece: %d, %v, progress %d", n, err, seen)
	}
	if got, _ := cache.Get(item.Name); !bytes.Equal(got, body) {
		t.Errorf("cached %d bytes, not the body", len(got))
	}
	cache.Release()
}

// A whole-item attempt learns the item's size from the response and
// declares it to its window, which a split may then cut — unless the
// origin does not say it serves ranges.
func TestDownloadPathWholeRangeDeclaresSize(t *testing.T) {
	srv, body := rangeOrigin(t, 5000)
	cache := NewCache()
	p := &DownloadPath{PathName: "adsl", Client: srv.Client(), Sink: CachingSink(cache)}
	r := &scheduler.Range{Body: 1}
	if n, err := p.TransferRange(context.Background(), scheduler.Item{Name: srv.URL + "/w"}, r, nil); err != nil || n != 5000 {
		t.Fatalf("TransferRange = %d, %v", n, err)
	}
	if r.End() != 5000 || !r.Complete() {
		t.Errorf("window ends at %d, complete %v; want 5000, true", r.End(), r.Complete())
	}
	if got, _ := cache.Get(srv.URL + "/w"); !bytes.Equal(got, body) {
		t.Errorf("cached %d bytes, not the body", len(got))
	}
	cache.Release()

	plain := originServer(t, 5000) // declares its length, not Accept-Ranges
	defer plain.Close()
	p.Client = plain.Client()
	r = &scheduler.Range{Body: 2}
	if n, err := p.TransferRange(context.Background(), scheduler.Item{Name: plain.URL + "/p"}, r, nil); err != nil || n != 5000 {
		t.Fatalf("TransferRange without Accept-Ranges = %d, %v", n, err)
	}
	if r.End() != 0 {
		t.Errorf("an origin that does not serve ranges gave the window an end, %d", r.End())
	}
	if got, _ := cache.Get(plain.URL + "/p"); len(got) != 5000 {
		t.Errorf("cached %d bytes, want 5000", len(got))
	}
	cache.Release()
}

// A piece is accepted only as the 206 it asked for.
func TestDownloadPathRejectsWrongRanges(t *testing.T) {
	for _, c := range []struct {
		name   string
		status int
		header string
	}{
		{"whole body", http.StatusOK, ""},
		{"other range", http.StatusPartialContent, "bytes 0-99/1000"},
		{"unknown size", http.StatusPartialContent, "bytes 100-199/*"},
		{"past the size", http.StatusPartialContent, "bytes 100-199/150"},
		{"no header", http.StatusPartialContent, ""},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if c.header != "" {
				w.Header().Set("Content-Range", c.header)
			}
			w.WriteHeader(c.status)
			w.Write(make([]byte, 100))
		}))
		cache := NewCache()
		p := &DownloadPath{PathName: "adsl", Client: srv.Client(), Sink: CachingSink(cache)}
		if _, err := p.TransferRange(context.Background(), scheduler.Item{Name: srv.URL + "/x"}, piece(100, 200), nil); err == nil {
			t.Errorf("%s: %d %q accepted for bytes 100-199", c.name, c.status, c.header)
		}
		srv.Close()
	}
}

// FuzzContentRange holds the parser of a 206's Content-Range to what it
// may accept from the far end: never a panic; only the range the request
// asked for, inside a declared size; and only what it round-trips to.
func FuzzContentRange(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string, off, end int64) {
		size, ok := contentRange(h, off, end)
		if !ok {
			return
		}
		if off < 0 || end <= off || end > size {
			t.Fatalf("%q accepted for [%d, %d) of a %d-byte item", h, off, end, size)
		}
		if back := fmt.Sprintf("bytes %d-%d/%d", off, end-1, size); back != h {
			t.Fatalf("%q accepted, but it reads back as %q", h, back)
		}
	})
}
