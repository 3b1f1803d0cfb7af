// Package transfer binds the multipath scheduler to HTTP: download paths
// issue GET requests (directly over the ADSL route or through a 3G
// device's proxy), upload paths send multipart/form-data POSTs — the
// two transports the paper's client component uses for video-on-demand
// prefetching and photo upload. Both carry pieces of an item when the
// scheduler divides one: a Range GET, or a part that names its window.
package transfer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"strconv"
	"strings"
	"sync/atomic"

	"threegol/internal/clock"
	"threegol/internal/obs/eventlog"
	"threegol/internal/scheduler"
)

// DownloadPath fetches items by URL over one HTTP route. It implements
// scheduler.Path, and scheduler.RangePath: each item's Name must be an
// absolute URL, and a piece of an item is a Range GET, which the origin
// must answer with the 206 it asked for.
type DownloadPath struct {
	// PathName labels the route in reports ("adsl", "phone1", ...).
	PathName string
	// Client issues the GETs. Route identity lives in the client's
	// transport: the ADSL path uses a dialer shaped to the DSL line; a
	// phone path uses a transport whose Proxy points at the device.
	Client *http.Client
	// Sink consumes each item's body, or a piece of it, at w; nil
	// discards it. The HLS client proxy installs a caching sink here.
	// Sink must be safe for concurrent calls, with the same item too
	// (GRD's endgame runs one item, or two pieces of it, on two paths).
	Sink func(item scheduler.Item, body io.Reader, w Window) (int64, error)
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

// Window is where a body a sink reads belongs in its item.
type Window struct {
	// Off is the body's first byte in the item.
	Off int64
	// Size is the item's whole size, -1 when the origin did not declare
	// it.
	Size int64
	// Body is the buffer a ranged attempt's bytes go into
	// (scheduler.Range.Body); 0 for a body that is the whole item and
	// owns its buffer. A body with a Body is read to EOF: DownloadPath
	// ends it where the attempt's range ends, however a split moved that,
	// and fails one that ends before.
	Body int
}

// Name implements scheduler.Path.
func (p *DownloadPath) Name() string { return p.PathName }

// Transfer implements scheduler.Path: GET the item and feed it to the
// sink, returning bytes moved (partial on cancellation).
func (p *DownloadPath) Transfer(ctx context.Context, item scheduler.Item) (int64, error) {
	return p.transfer(ctx, item, nil, nil)
}

// TransferProgress implements scheduler.ProgressPath: Transfer with a
// cumulative byte-progress hook observing the response body stream, so
// the scheduler's stall watchdog can abort a transfer whose connection
// is up but silent.
func (p *DownloadPath) TransferProgress(ctx context.Context, item scheduler.Item, progress func(int64)) (int64, error) {
	return p.transfer(ctx, item, nil, progress)
}

// Ranges implements scheduler.RangePath: a DownloadPath always carries
// pieces.
func (p *DownloadPath) Ranges() bool { return true }

// Cuts implements scheduler.RangePath: a split may cut a GET short.
func (p *DownloadPath) Cuts() bool { return true }

// TransferRange implements scheduler.RangePath: GET the bytes of the
// item that r bounds — the whole item while r has no end, else a Range
// GET — and stop at r's end, which a split may lower mid-body. A whole
// item's window gets its end, and may be split, only when the response
// declares its length and "Accept-Ranges: bytes". A cut attempt closes
// its response unread, so its connection is not reused.
func (p *DownloadPath) TransferRange(ctx context.Context, item scheduler.Item, r *scheduler.Range, progress func(int64)) (int64, error) {
	return p.transfer(ctx, item, r, progress)
}

func (p *DownloadPath) transfer(ctx context.Context, item scheduler.Item, r *scheduler.Range, progress func(int64)) (n int64, err error) {
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
	var end int64
	if r != nil {
		if end = r.End(); end > 0 {
			req.Header.Set("Range", "bytes="+strconv.FormatInt(r.Off, 10)+"-"+strconv.FormatInt(end-1, 10))
		}
	}
	eventlog.InjectHTTP(req.Header, propagated(sp, tc))
	resp, err := p.Client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("transfer: GET %s via %s: %w", item.Name, p.PathName, err)
	}
	defer resp.Body.Close()
	w := Window{Size: resp.ContentLength}
	switch {
	case end > 0:
		var ok bool
		if resp.StatusCode != http.StatusPartialContent {
			return 0, fmt.Errorf("transfer: GET %s bytes %d-%d via %s: status %s", item.Name, r.Off, end-1, p.PathName, resp.Status)
		}
		if w.Size, ok = contentRange(resp.Header.Get("Content-Range"), r.Off, end); !ok {
			return 0, fmt.Errorf("transfer: GET %s bytes %d-%d via %s: Content-Range %q", item.Name, r.Off, end-1, p.PathName, resp.Header.Get("Content-Range"))
		}
	case resp.StatusCode != http.StatusOK:
		return 0, fmt.Errorf("transfer: GET %s via %s: status %s", item.Name, p.PathName, resp.Status)
	case r != nil && w.Size > 0 && resp.Header.Get("Accept-Ranges") == "bytes":
		// Only an origin that serves ranges lets the attempt be split:
		// a window with no end is never cut.
		r.SetEnd(w.Size)
	}
	sink := p.Sink
	if sink == nil {
		sink = func(_ scheduler.Item, body io.Reader, _ Window) (int64, error) {
			return io.Copy(io.Discard, body)
		}
	}
	body := io.Reader(resp.Body)
	if r != nil {
		w.Off, w.Body = r.Off, r.Body
		body = &rangeReader{r: body, rng: r}
	}
	if progress != nil {
		body = &countingReader{r: body, fn: progress}
	}
	n, err = sink(item, body, w)
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
// emulates. It implements scheduler.Path, and scheduler.RangePath: a
// piece of an item is a POST of its bytes as a part that names its
// window ("Content-Range: bytes a-b/size"), which it sends only once the
// target has said "Accept-Ranges: bytes" in an earlier response; until
// then it carries whole items, and no target that does not say so ever
// sees a piece. An upload declares its length, so no attempt is ever
// cut short.
type UploadPath struct {
	PathName string
	Client   *http.Client
	// TargetURL receives the POSTs.
	TargetURL string
	// Source opens each item's content, which must be exactly the
	// item's Size bytes: the POST declares its length, and content that
	// ends short or runs long fails the transfer. A piece reads it from
	// the piece's offset, seeking when the content is an io.Seeker.
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

	ranges atomic.Bool // the target has said "Accept-Ranges: bytes"
}

// Name implements scheduler.Path.
func (p *UploadPath) Name() string { return p.PathName }

// Transfer implements scheduler.Path: one multipart POST of the item,
// sent with a Content-Length. The returned byte count covers the item
// content (not multipart framing).
func (p *UploadPath) Transfer(ctx context.Context, item scheduler.Item) (int64, error) {
	return p.transfer(ctx, item, 0, 0, nil)
}

// TransferProgress implements scheduler.ProgressPath: Transfer with a
// cumulative byte-progress hook observing the request body stream.
func (p *UploadPath) TransferProgress(ctx context.Context, item scheduler.Item, progress func(int64)) (int64, error) {
	return p.transfer(ctx, item, 0, 0, progress)
}

// Ranges implements scheduler.RangePath: the path carries pieces once
// its target has said "Accept-Ranges: bytes".
func (p *UploadPath) Ranges() bool { return p.ranges.Load() }

// Cuts implements scheduler.RangePath: an upload declares its length, so
// its attempts are never cut.
func (p *UploadPath) Cuts() bool { return false }

// TransferRange implements scheduler.RangePath: POST the whole item
// while r has no end, else the piece [r.Off, r.End()) of it.
func (p *UploadPath) TransferRange(ctx context.Context, item scheduler.Item, r *scheduler.Range, progress func(int64)) (int64, error) {
	return p.transfer(ctx, item, r.Off, r.End(), progress)
}

// transfer POSTs the bytes [off, end) of item, the whole of it when end
// is 0.
func (p *UploadPath) transfer(ctx context.Context, item scheduler.Item, off, end int64, progress func(int64)) (n int64, err error) {
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
	if err == nil && off > 0 {
		if err = skip(content, off); err != nil {
			content.Close()
		}
	}
	if err != nil {
		return 0, fmt.Errorf("transfer: opening %s: %w", item.Name, err)
	}
	body, contentType := newUploadBody(content, item, off, end, progress)
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
		if resp.Header.Get("Accept-Ranges") == "bytes" {
			p.ranges.Store(true)
		}
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

// skip moves content to its byte off: a seek when it can, else a read.
func skip(content io.Reader, off int64) error {
	if s, ok := content.(io.Seeker); ok {
		_, err := s.Seek(off, io.SeekStart)
		return err
	}
	if _, err := io.CopyN(io.Discard, content, off); err != nil {
		return fmt.Errorf("skipping to the piece at %d: %w", off, err)
	}
	return nil
}

// uploadBody is one POST's body: the multipart head, the item's content
// or a piece of it, the closing boundary. Its length is declared, so
// net/http sends it with a Content-Length and copies it to the
// connection in one pass (a shaped connection's ReadFrom: one link step
// per read, into a reused buffer); the body itself holds no buffer
// beyond the framing's few hundred bytes. Content that ends before the
// part's size, or a whole item's that runs past it, fails the read
// before the closing boundary is sent, so the server never takes a
// truncated file for a whole one.
type uploadBody struct {
	frame   []byte // the head, then the tail
	head    int    // the head's length within frame
	sent    int    // framing bytes read
	size    int64  // the part's declared length
	whole   bool   // the part is the whole item: content must end at size
	content countingReader
	src     io.ReadCloser
	closed  atomic.Bool
}

// partQuoter escapes a file name as mime/multipart's CreateFormFile does.
var partQuoter = strings.NewReplacer("\\", "\\\\", `"`, "\\\"")

// newUploadBody frames the bytes [off, end) of item's content src — the
// whole item when end is 0 — as the one file part of a
// multipart/form-data body, returning the body and its Content-Type. A
// piece's part names its window in a Content-Range header.
func newUploadBody(src io.ReadCloser, item scheduler.Item, off, end int64, progress func(int64)) (*uploadBody, string) {
	h := textproto.MIMEHeader{
		"Content-Disposition": {`form-data; name="file"; filename="` + partQuoter.Replace(item.Name) + `"`},
		"Content-Type":        {"application/octet-stream"},
	}
	size := item.Size
	if end > 0 {
		h.Set("Content-Range", "bytes "+strconv.FormatInt(off, 10)+"-"+strconv.FormatInt(end-1, 10)+"/"+strconv.FormatInt(item.Size, 10))
		size = end - off
	}
	var frame bytes.Buffer
	mw := multipart.NewWriter(&frame)
	_, _ = mw.CreatePart(h) // a bytes.Buffer takes every write
	head := frame.Len()
	_ = mw.Close()
	return &uploadBody{
		frame: frame.Bytes(), head: head, size: size, whole: end == 0,
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
	if b.sent == b.head && b.whole {
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

// contentRange reads a 206's Content-Range against the window [off, end)
// its request asked for and returns the item's size. ok is false unless
// the header names exactly that window inside a declared size, in the
// canonical form that the values print back to.
func contentRange(h string, off, end int64) (size int64, ok bool) {
	i := strings.LastIndexByte(h, '/')
	if i < 0 {
		return 0, false
	}
	size, err := strconv.ParseInt(h[i+1:], 10, 64)
	if err != nil || off < 0 || end <= off || end > size ||
		h != "bytes "+strconv.FormatInt(off, 10)+"-"+strconv.FormatInt(end-1, 10)+"/"+strconv.FormatInt(size, 10) {
		return 0, false
	}
	return size, true
}

// errShortRange is a body that ended before its range did.
var errShortRange = errors.New("body ended before its range")

// rangeReader reads a ranged attempt's body up to its range's end, which
// a split may lower while it reads, and then reports EOF. A body that
// ends short is errShortRange, never io.EOF or io.ErrUnexpectedEOF, so
// that its reader can take an early EOF for the cut.
type rangeReader struct {
	r   io.Reader
	rng *scheduler.Range
}

func (b *rangeReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	k := b.rng.Take(len(p))
	if k == 0 {
		return 0, io.EOF
	}
	n, err := b.r.Read(p[:k])
	b.rng.Got(n)
	if err == io.ErrUnexpectedEOF || (err == io.EOF && b.rng.End() > 0 && !b.rng.Complete()) {
		err = errShortRange
	}
	return n, err
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
