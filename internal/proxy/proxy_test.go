package proxy

import (
	"bytes"
	"context"
	"crypto/tls"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"threegol/internal/netem"
	"threegol/internal/obs"
)

// newProxyClient starts the proxy server and returns an http.Client that
// routes through it, plus a shutdown func.
func newProxyClient(t *testing.T, s *Server) (*http.Client, func()) {
	t.Helper()
	addr, shutdown, err := s.ListenAndServe(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxyURL := &url.URL{Scheme: "http", Host: addr}
	client := &http.Client{Transport: &http.Transport{
		Proxy:           http.ProxyURL(proxyURL),
		TLSClientConfig: &tls.Config{InsecureSkipVerify: true},
	}}
	return client, func() { shutdown() }
}

func TestProxyForwardsGET(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Origin", "yes")
		w.Write(bytes.Repeat([]byte("d"), 4096))
	}))
	defer origin.Close()

	s := &Server{Dial: &net.Dialer{}}
	client, stop := newProxyClient(t, s)
	defer stop()

	resp, err := client.Get(origin.URL + "/file")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if len(body) != 4096 {
		t.Errorf("body = %d bytes, want 4096", len(body))
	}
	if resp.Header.Get("X-Origin") != "yes" {
		t.Error("origin headers not forwarded")
	}
	if s.BytesTotal() < 4096 {
		t.Errorf("BytesTotal = %d, want ≥4096", s.BytesTotal())
	}
}

func TestProxyAdmitGate(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer origin.Close()

	var allowed atomic.Bool
	s := &Server{Dial: &net.Dialer{}, Admit: func(context.Context) bool { return allowed.Load() }}
	client, stop := newProxyClient(t, s)
	defer stop()

	resp, err := client.Get(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("unpermitted request = %s, want 503", resp.Status)
	}

	allowed.Store(true)
	resp, err = client.Get(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("permitted request = %s, want 200", resp.Status)
	}
}

// The proxy charges what the 3G interface carried: the response, and of
// the request what the transport read of its body — whether the length
// was declared (the uploader's multipart POSTs declare it), the body
// chunked, or the request aborted part-way.
func TestProxyOnBytesAccounting(t *testing.T) {
	const reply = 10_000
	var atOrigin atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf := make([]byte, 4<<10)
		for {
			n, err := r.Body.Read(buf)
			atOrigin.Add(int64(n))
			if err != nil {
				break
			}
		}
		w.Write(bytes.Repeat([]byte("x"), reply))
	}))
	defer origin.Close()

	var counted atomic.Int64
	failed := make(chan struct{}, 1)
	s := &Server{
		Dial:    &net.Dialer{},
		OnBytes: func(n int64) { counted.Add(n) },
		Logf: func(string, ...any) {
			select {
			case failed <- struct{}{}:
			default:
			}
		},
	}
	client, stop := newProxyClient(t, s)
	defer stop()

	// do sends one request and returns what it was charged beyond the
	// response and the request line.
	do := func(method string, body io.Reader) int64 {
		t.Helper()
		before := counted.Load()
		req, err := http.NewRequest(method, origin.URL+"/photos", body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || n != reply {
			t.Fatalf("%s = %s with %d bytes", method, resp.Status, n)
		}
		if total := s.BytesTotal(); total != counted.Load() {
			t.Errorf("BytesTotal = %d, OnBytes counted %d", total, counted.Load())
		}
		return counted.Load() - before - reply - requestLineBytes(req)
	}

	const photo = 614_400
	if extra := do(http.MethodGet, nil); extra != 0 {
		t.Errorf("a GET was charged %d bytes beyond its response and request line", extra)
	}
	if extra := do(http.MethodPost, bytes.NewReader(make([]byte, photo))); extra != photo {
		t.Errorf("a declared-length body of %d bytes was charged %d", photo, extra)
	}
	// struct{ io.Reader } hides the length: net/http sends it chunked.
	if extra := do(http.MethodPost, struct{ io.Reader }{bytes.NewReader(make([]byte, photo))}); extra != photo {
		t.Errorf("a chunked body of %d bytes was charged %d", photo, extra)
	}

	// An aborted request: a fifth of a declared photo arrives, then the
	// client gives up. The phone carried that fifth and is charged it.
	before, seen := counted.Load(), atOrigin.Load()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, origin.URL+"/photos", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = photo
	done := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	if _, err := pw.Write(make([]byte, photo/5)); err != nil {
		t.Fatal(err)
	}
	for atOrigin.Load()-seen < photo/5 {
		time.Sleep(time.Millisecond) // until the fifth has crossed the 3G hop
	}
	pw.CloseWithError(io.ErrClosedPipe)
	if err := <-done; err == nil {
		t.Fatal("the aborted request succeeded")
	}
	<-failed // the proxy has given the request up
	if got := counted.Load() - before; got != photo/5 {
		t.Errorf("an aborted request that carried %d body bytes was charged %d", photo/5, got)
	}
}

func TestProxyUpstreamFailure(t *testing.T) {
	s := &Server{Dial: &net.Dialer{}}
	client, stop := newProxyClient(t, s)
	defer stop()
	resp, err := client.Get("http://127.0.0.1:1/unreachable")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("unreachable upstream = %s, want 502", resp.Status)
	}
}

func TestProxyRejectsRelativeForm(t *testing.T) {
	s := &Server{Dial: &net.Dialer{}}
	addr, shutdown, err := s.ListenAndServe(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	// Talk to the proxy as if it were an origin server (relative path).
	resp, err := http.Get("http://" + addr + "/not-absolute")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("relative-form request = %s, want 400", resp.Status)
	}
}

func TestProxyMisconfiguredDialer(t *testing.T) {
	s := &Server{}
	addr, shutdown, err := s.ListenAndServe(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("no-dialer request = %s, want 500", resp.Status)
	}
}

func TestProxyConnectTunnel(t *testing.T) {
	origin := httptest.NewTLSServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("secure"))
	}))
	defer origin.Close()

	s := &Server{Dial: &net.Dialer{}}
	client, stop := newProxyClient(t, s)
	defer stop()

	resp, err := client.Get(origin.URL)
	if err != nil {
		t.Fatalf("CONNECT through proxy failed: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "secure" {
		t.Errorf("tunnelled body = %q", body)
	}
	if s.BytesTotal() == 0 {
		t.Error("tunnel bytes not accounted")
	}
}

func TestProxyUsesProvidedDialer(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer origin.Close()

	var dials atomic.Int32
	s := &Server{Dial: countingDialer{&dials}}
	client, stop := newProxyClient(t, s)
	defer stop()

	resp, err := client.Get(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dials.Load() == 0 {
		t.Error("proxy did not use the provided (3G) dialer")
	}
}

type countingDialer struct{ n *atomic.Int32 }

func (d countingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	d.n.Add(1)
	var nd net.Dialer
	return nd.DialContext(ctx, network, addr)
}

// The debug route must answer origin-form /debug/ requests before the
// Admit gate: metrics stay reachable exactly when admission is denied.
func TestProxyDebugRouteBypassesAdmitGate(t *testing.T) {
	reg := obs.NewRegistry()
	mux := http.NewServeMux()
	mux.Handle("/debug/metrics", obs.Handler(reg))
	s := &Server{
		Dial:    &net.Dialer{},
		Admit:   func(context.Context) bool { return false },
		Metrics: NewMetrics(reg),
		Debug:   mux,
	}
	addr, shutdown, err := s.ListenAndServe(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	// Origin-form request straight at the proxy (no Proxy transport).
	resp, err := http.Get("http://" + addr + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/metrics with Admit=false = %s, want 200", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("proxy_requests_total")) {
		t.Errorf("metrics body missing proxy_requests_total:\n%s", body)
	}
}

// Every request that reaches the Admit hook is timed into
// proxy_admit_seconds, granted or denied; a debug request never asks.
func TestProxyTimesAdmit(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer origin.Close()

	var allowed atomic.Bool
	m := NewMetrics(obs.NewRegistry())
	s := &Server{
		Dial:    &net.Dialer{},
		Admit:   func(context.Context) bool { return allowed.Swap(true) },
		Metrics: m,
		Debug:   http.NotFoundHandler(),
	}
	addr, shutdown, err := s.ListenAndServe(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(&url.URL{Scheme: "http", Host: addr})}}

	for _, want := range []int{http.StatusServiceUnavailable, http.StatusOK} {
		resp, err := client.Get(origin.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("request = %s, want %d", resp.Status, want)
		}
	}
	resp, err := http.Get("http://" + addr + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := m.AdmitSeconds.With().Count(); got != 2 {
		t.Errorf("proxy_admit_seconds count = %d, want 2", got)
	}
}

// readerFromTrap is a destination whose ReadFrom, the shortcut io.Copy
// takes and the one that allocates a buffer per response, must stay
// unused.
type readerFromTrap struct {
	bytes.Buffer
	t *testing.T
}

func (d *readerFromTrap) ReadFrom(io.Reader) (int64, error) {
	d.t.Error("Relay let the destination's ReadFrom do the copy")
	return 0, nil
}

// offerReader records the len(p) of every Read a source is offered. Like
// a response body it has no WriteTo shortcut.
type offerReader struct {
	r       io.Reader
	offered []int
}

func (o *offerReader) Read(p []byte) (int, error) {
	o.offered = append(o.offered, len(p))
	return o.r.Read(p)
}

func TestRelayCopiesThroughItsOwnBuffer(t *testing.T) {
	want := bytes.Repeat([]byte("3gol"), 250_000) // several buffers' worth
	dst := &readerFromTrap{t: t}
	src := &offerReader{r: bytes.NewReader(want)}
	n, err := Relay(dst, src)
	if err != nil || n != int64(len(want)) || !bytes.Equal(dst.Bytes(), want) {
		t.Fatalf("Relay = %d, %v; %d bytes arrived, want %d", n, err, dst.Len(), len(want))
	}
	// The source is offered what one read of a shaped connection can
	// fill, not io.Copy's 32 KB.
	for _, offered := range src.offered {
		if offered != netem.MaxRead {
			t.Fatalf("the source was offered a %d-byte buffer, want netem.MaxRead = %d", offered, netem.MaxRead)
		}
	}
}
