// Package transfer binds the multipath scheduler to HTTP: download paths
// issue GET requests (directly over the ADSL route or through a 3G
// device's proxy), upload paths stream multipart/form-data POSTs — the
// two transports the paper's client component uses for video-on-demand
// prefetching and photo upload.
package transfer

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"sync/atomic"

	"threegol/internal/clock"
	"threegol/internal/obs/eventlog"
	"threegol/internal/scheduler"
)

// DownloadPath fetches items by URL over one HTTP route. It implements
// scheduler.Path: each item's Name must be an absolute URL.
type DownloadPath struct {
	// PathName labels the route in reports ("adsl", "phone1", ...).
	PathName string
	// Client issues the GETs. Route identity lives in the client's
	// transport: the ADSL path uses a dialer shaped to the DSL line; a
	// phone path uses a transport whose Proxy points at the device.
	Client *http.Client
	// Sink consumes each item's body; nil discards it. size is the
	// response's Content-Length, -1 when the origin did not declare one.
	// The HLS client proxy installs a caching sink here. Sink must be
	// safe for concurrent calls, with the same item too (GRD's endgame
	// runs one item on two paths).
	Sink func(item scheduler.Item, body io.Reader, size int64) (int64, error)
	// Metrics receives transfer instrumentation (see NewMetrics); the
	// zero value records nothing. One Metrics may be shared across paths.
	Metrics Metrics
	// Events, when non-nil, records a flight-recorder span per transfer,
	// parented to the TraceContext riding ctx (the scheduler's attempt
	// span). The trace also propagates on the request's X-3gol-Trace
	// header, with or without a local log.
	Events *eventlog.Log
	// Clock times transfers for Metrics; nil selects the system clock.
	Clock clock.Clock
}

// Name implements scheduler.Path.
func (p *DownloadPath) Name() string { return p.PathName }

// Transfer implements scheduler.Path: GET the item and feed it to the
// sink, returning bytes moved (partial on cancellation).
func (p *DownloadPath) Transfer(ctx context.Context, item scheduler.Item) (int64, error) {
	return p.transfer(ctx, item, nil)
}

// TransferProgress implements scheduler.ProgressPath: Transfer with a
// cumulative byte-progress hook observing the response body stream, so
// the scheduler's stall watchdog can abort a transfer whose connection
// is up but silent.
func (p *DownloadPath) TransferProgress(ctx context.Context, item scheduler.Item, progress func(int64)) (int64, error) {
	return p.transfer(ctx, item, progress)
}

func (p *DownloadPath) transfer(ctx context.Context, item scheduler.Item, progress func(int64)) (n int64, err error) {
	clk := clock.Or(p.Clock)
	t0 := clk.Now()
	tc, _ := eventlog.FromContext(ctx)
	sp := p.Events.Begin(tc, "transfer.download", "item", item.Name, "path", p.PathName)
	defer func() {
		p.Metrics.done(dirDownload, n, err, ctx.Err() != nil, clk.Since(t0).Seconds())
		sp.End("outcome", outcome(err, ctx), "bytes", eventlog.Int(n))
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, item.Name, nil)
	if err != nil {
		return 0, fmt.Errorf("transfer: building request for %s: %w", item.Name, err)
	}
	eventlog.InjectHTTP(req.Header, propagated(sp, tc))
	resp, err := p.Client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("transfer: GET %s via %s: %w", item.Name, p.PathName, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("transfer: GET %s via %s: status %s", item.Name, p.PathName, resp.Status)
	}
	sink := p.Sink
	if sink == nil {
		sink = func(_ scheduler.Item, body io.Reader, _ int64) (int64, error) {
			return io.Copy(io.Discard, body)
		}
	}
	body := io.Reader(resp.Body)
	if progress != nil {
		body = &countingReader{r: body, fn: progress}
	}
	n, err = sink(item, body, resp.ContentLength)
	if err != nil {
		// Prefer reporting cancellation over the wrapped copy error so
		// the scheduler classifies aborted replicas correctly.
		if ctx.Err() != nil {
			return n, ctx.Err()
		}
		return n, fmt.Errorf("transfer: reading %s via %s: %w", item.Name, p.PathName, err)
	}
	return n, nil
}

// ItemSource supplies an item's content for upload. Implementations must
// be safe for concurrent calls (the greedy endgame may read the same item
// on two paths at once, so each call must return an independent reader).
type ItemSource func(item scheduler.Item) (io.ReadCloser, error)

// UploadPath uploads items to TargetURL as multipart/form-data POSTs —
// the request shape of Facebook/Flickr/Picasa native clients the paper
// emulates.
type UploadPath struct {
	PathName string
	Client   *http.Client
	// TargetURL receives the POSTs.
	TargetURL string
	// Field is the form field name; empty selects "file".
	Field string
	// Source opens each item's content, which must be exactly the
	// item's Size bytes: the POST declares its length, and content that
	// ends short or runs long fails the transfer.
	Source ItemSource
	// Metrics receives transfer instrumentation (see NewMetrics); the
	// zero value records nothing. One Metrics may be shared across paths.
	Metrics Metrics
	// Events, when non-nil, records a flight-recorder span per transfer,
	// parented to the TraceContext riding ctx; the trace also propagates
	// on the POST's X-3gol-Trace header.
	Events *eventlog.Log
	// Clock times transfers for Metrics; nil selects the system clock.
	Clock clock.Clock
}

// Name implements scheduler.Path.
func (p *UploadPath) Name() string { return p.PathName }

// Transfer implements scheduler.Path: one multipart POST of the item,
// sent with a Content-Length. The returned byte count covers the item
// content (not multipart framing).
func (p *UploadPath) Transfer(ctx context.Context, item scheduler.Item) (int64, error) {
	return p.transfer(ctx, item, nil)
}

// TransferProgress implements scheduler.ProgressPath: Transfer with a
// cumulative byte-progress hook observing the request body stream.
func (p *UploadPath) TransferProgress(ctx context.Context, item scheduler.Item, progress func(int64)) (int64, error) {
	return p.transfer(ctx, item, progress)
}

func (p *UploadPath) transfer(ctx context.Context, item scheduler.Item, progress func(int64)) (n int64, err error) {
	clk := clock.Or(p.Clock)
	t0 := clk.Now()
	tc, _ := eventlog.FromContext(ctx)
	sp := p.Events.Begin(tc, "transfer.upload", "item", item.Name, "path", p.PathName)
	defer func() {
		p.Metrics.done(dirUpload, n, err, ctx.Err() != nil, clk.Since(t0).Seconds())
		sp.End("outcome", outcome(err, ctx), "bytes", eventlog.Int(n))
	}()
	if p.Source == nil {
		return 0, fmt.Errorf("transfer: UploadPath %s has no Source", p.PathName)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.TargetURL, nil)
	if err != nil {
		return 0, fmt.Errorf("transfer: building POST for %s: %w", item.Name, err)
	}
	content, err := p.Source(item)
	if err != nil {
		return 0, fmt.Errorf("transfer: opening %s: %w", item.Name, err)
	}
	body, contentType := newUploadBody(content, item, p.Field, progress)
	// The transport closes the body, and with it the content, on every
	// path out of Do.
	req.Body = body
	req.ContentLength = body.length()
	req.Header.Set("Content-Type", contentType)
	eventlog.InjectHTTP(req.Header, propagated(sp, tc))
	resp, err := p.Client.Do(req)
	if err == nil {
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated &&
			resp.StatusCode != http.StatusNoContent {
			err = fmt.Errorf("status %s", resp.Status)
		}
	}
	n = body.content.count()
	if err != nil {
		// Prefer reporting cancellation over whatever the cancel turned
		// into on the wire (a short write, a broken pipe, a hop's 502 for
		// the half-sent body), so the scheduler classifies a losing
		// replica as cancelled, not as a failure of its path.
		if ctx.Err() != nil {
			return n, ctx.Err()
		}
		return n, fmt.Errorf("transfer: POST %s via %s: %w", item.Name, p.PathName, err)
	}
	return n, nil
}

// uploadBody is one POST's body: the multipart head, the item's content,
// the closing boundary. Its length is declared, so net/http sends it with
// a Content-Length and copies it to the connection in one pass (a shaped
// connection's ReadFrom: one link step per read, into a reused buffer);
// the body itself holds no buffer beyond the framing's few hundred bytes.
// Content that ends before item.Size, or runs past it, fails the read
// before the closing boundary is sent, so the server never takes a
// truncated file for a whole one.
type uploadBody struct {
	frame   []byte // the head, then the tail
	head    int    // the head's length within frame
	sent    int    // framing bytes read
	size    int64  // the content's declared length
	content countingReader
	src     io.ReadCloser
	closed  atomic.Bool
}

// newUploadBody frames item's content src as the one file part of a
// multipart/form-data body, returning the body and its Content-Type.
func newUploadBody(src io.ReadCloser, item scheduler.Item, field string, progress func(int64)) (*uploadBody, string) {
	if field == "" {
		field = "file"
	}
	var frame bytes.Buffer
	mw := multipart.NewWriter(&frame)
	_, _ = mw.CreateFormFile(field, item.Name) // a bytes.Buffer takes every write
	head := frame.Len()
	_ = mw.Close()
	return &uploadBody{
		frame: frame.Bytes(), head: head, size: item.Size,
		content: countingReader{r: src, fn: progress}, src: src,
	}, mw.FormDataContentType()
}

// length is the body's declared Content-Length.
func (b *uploadBody) length() int64 { return int64(len(b.frame)) + b.size }

func (b *uploadBody) Read(p []byte) (int, error) {
	if b.sent < b.head {
		n := copy(p, b.frame[b.sent:b.head])
		b.sent += n
		return n, nil
	}
	if left := b.size - b.content.count(); left > 0 {
		n, err := b.content.Read(p[:min(int64(len(p)), left)])
		if err == io.EOF {
			err = nil
			if int64(n) < left {
				err = fmt.Errorf("content ended after %d of its %d bytes", b.content.count(), b.size)
			}
		}
		return n, err
	}
	if b.sent == b.head {
		// The content must end where its size says: one byte more, and
		// the body would carry a file the sender did not mean.
		var one [1]byte
		if n, _ := b.src.Read(one[:]); n > 0 {
			return 0, fmt.Errorf("content runs past its %d bytes", b.size)
		}
	}
	if b.sent == len(b.frame) {
		return 0, io.EOF
	}
	n := copy(p, b.frame[b.sent:])
	b.sent += n
	return n, nil
}

// Close closes the content, once: the transport may close a request
// body more than once on its error paths.
func (b *uploadBody) Close() error {
	if b.closed.Swap(true) {
		return nil
	}
	return b.src.Close()
}

// outcome classifies a finished transfer for the flight recorder,
// preferring cancellation (the endgame losing-replica case) over a
// generic error.
func outcome(err error, ctx context.Context) string {
	switch {
	case err == nil:
		return "ok"
	case ctx.Err() != nil:
		return "cancelled"
	default:
		return "error"
	}
}

// propagated picks the trace position to stamp on the outgoing request:
// the local transfer span when a log is wired, else the caller's
// context — so traces cross the proxy boundary even on uninstrumented
// paths.
func propagated(sp eventlog.Span, tc eventlog.TraceContext) eventlog.TraceContext {
	if c := sp.Context(); c.Valid() {
		return c
	}
	return tc
}

// countingReader forwards Reads, reporting the cumulative byte count to
// fn, when set, after every productive read. The count may be read from
// another goroutine: the transport can still be reading a request body
// when Do returns.
type countingReader struct {
	r  io.Reader
	fn func(int64)
	n  atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		total := c.n.Add(int64(n))
		if c.fn != nil {
			c.fn(total)
		}
	}
	return n, err
}

func (c *countingReader) count() int64 { return c.n.Load() }
