// Package transfer binds the multipath scheduler to HTTP: download paths
// issue GET requests (directly over the ADSL route or through a 3G
// device's proxy), upload paths stream multipart/form-data POSTs — the
// two transports the paper's client component uses for video-on-demand
// prefetching and photo upload.
package transfer

import (
	"context"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"sync"

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
		body = &progressReader{r: body, fn: progress}
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
	// Source opens each item's content.
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

// Transfer implements scheduler.Path: stream one multipart POST. The
// returned byte count covers the item content (not multipart framing).
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
	content, err := p.Source(item)
	if err != nil {
		return 0, fmt.Errorf("transfer: opening %s: %w", item.Name, err)
	}

	pr, pw := io.Pipe()
	mw := multipart.NewWriter(pw)
	counter := &countingReader{r: content, fn: progress}

	// The writer goroutine's lifecycle is the pipe itself: every exit path
	// closes pw, which unblocks the POST body reader, and Client.Do below
	// cannot return before the pipe is closed or broken.
	go func() { //3golvet:allow goroleak — joined through the pipe close, not a channel
		defer content.Close()
		field := p.Field
		if field == "" {
			field = "file"
		}
		part, err := mw.CreateFormFile(field, item.Name)
		if err != nil {
			pw.CloseWithError(err)
			return
		}
		if _, err := io.Copy(part, counter); err != nil {
			pw.CloseWithError(err)
			return
		}
		pw.CloseWithError(mw.Close())
	}()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.TargetURL, pr)
	if err != nil {
		pr.Close()
		return 0, fmt.Errorf("transfer: building POST for %s: %w", item.Name, err)
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	eventlog.InjectHTTP(req.Header, propagated(sp, tc))
	resp, err := p.Client.Do(req)
	if err != nil {
		pr.Close()
	} else {
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated &&
			resp.StatusCode != http.StatusNoContent {
			err = fmt.Errorf("status %s", resp.Status)
		}
	}
	n = counter.count()
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

type countingReader struct {
	r  io.Reader
	fn func(int64) // optional progress hook (cumulative bytes)
	mu sync.Mutex
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.mu.Lock()
	c.n += int64(n)
	total := c.n
	c.mu.Unlock()
	if c.fn != nil && n > 0 {
		c.fn(total)
	}
	return n, err
}

// progressReader forwards Reads, reporting the cumulative byte count to
// fn after every productive read.
type progressReader struct {
	r     io.Reader
	fn    func(int64)
	total int64
}

func (p *progressReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	if n > 0 {
		p.total += int64(n)
		p.fn(p.total)
	}
	return n, err
}

func (c *countingReader) count() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
