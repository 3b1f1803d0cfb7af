package permitplane

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"threegol/internal/scheduler"
	"threegol/internal/transfer"
)

// countingOrigin answers every request with a 100-byte body and counts
// the requests that reach it.
func countingOrigin(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write(make([]byte, 100))
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

// gatedDownload is a 3G download path whose client's transport is
// gated on allowed.
func gatedDownload(origin *httptest.Server, allowed func(context.Context) bool) *transfer.DownloadPath {
	return &transfer.DownloadPath{
		PathName: "3g",
		Client:   &http.Client{Transport: Gate(origin.Client().Transport, allowed)},
	}
}

// closeRecorder is a request body that records its Close.
type closeRecorder struct {
	io.Reader
	closed atomic.Bool
}

func (c *closeRecorder) Close() error { c.closed.Store(true); return nil }

func TestGateBlocksWithoutPermit(t *testing.T) {
	origin, hits := countingOrigin(t)
	var allowed atomic.Bool
	allowed.Store(true)
	p := gatedDownload(origin, func(context.Context) bool { return allowed.Load() })
	item := scheduler.Item{Name: origin.URL + "/seg"}
	if n, err := p.Transfer(context.Background(), item); err != nil || n != 100 {
		t.Errorf("permitted transfer: n=%d err=%v", n, err)
	}
	allowed.Store(false)
	if _, err := p.Transfer(context.Background(), item); !errors.Is(err, ErrNotPermitted) {
		t.Errorf("unpermitted transfer error = %v, want one wrapping ErrNotPermitted", err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("origin saw %d requests, want 1 (the gate must short-circuit)", got)
	}

	// A refused request's body is closed, as a RoundTripper must.
	body := &closeRecorder{Reader: strings.NewReader("photo")}
	req, err := http.NewRequest(http.MethodPost, origin.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Client.Do(req); !errors.Is(err, ErrNotPermitted) {
		t.Errorf("unpermitted POST error = %v, want one wrapping ErrNotPermitted", err)
	}
	if !body.closed.Load() {
		t.Error("the gate refused a request without closing its body")
	}
}

// The gate sits in the transport, so the path it gates keeps reporting
// progress to the stall watchdog.
func TestGatePreservesProgress(t *testing.T) {
	origin, _ := countingOrigin(t)
	p := gatedDownload(origin, func(context.Context) bool { return true })
	var reported int64
	n, err := p.TransferProgress(context.Background(),
		scheduler.Item{Name: origin.URL + "/seg"}, func(total int64) { reported = total })
	if err != nil || n != 100 || reported != 100 {
		t.Errorf("gated progress transfer: n=%d reported=%d err=%v", n, reported, err)
	}
}

// idleCloser is a transport that counts CloseIdleConnections calls.
type idleCloser struct {
	http.RoundTripper
	closes atomic.Int64
}

func (c *idleCloser) CloseIdleConnections() { c.closes.Add(1) }

// A gated client still releases its transport's pooled connections.
func TestGateClosesIdleConnections(t *testing.T) {
	inner := &idleCloser{RoundTripper: http.DefaultTransport}
	client := &http.Client{Transport: Gate(inner, func(context.Context) bool { return true })}
	client.CloseIdleConnections()
	if got := inner.closes.Load(); got != 1 {
		t.Errorf("the gated transport's CloseIdleConnections ran %d times, want 1", got)
	}
}
