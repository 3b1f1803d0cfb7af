package permitplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"threegol/internal/clock"
	"threegol/internal/obs/eventlog"
	"threegol/internal/permit"
)

// DefaultReprobeInterval is how often a legacy-latched BatchClient
// re-probes /permits/batch (jittered per client, so a fleet latched by
// the same restart does not re-probe in the same instant).
const DefaultReprobeInterval = time.Minute

// BatchClient issues grant/refresh requests against a permit backend,
// preferring the batch RPC and degrading transparently to per-permit
// GETs when the backend predates /permits/batch. The fallback is
// sticky only between re-probes: a jittered periodic re-probe of the
// batch endpoint unlatches the client when the backend comes back
// batch-capable (a restart onto a newer daemon must not leave the
// fleet on the slow single-GET path forever).
type BatchClient struct {
	// BackendURL is the backend's base URL (scheme://host:port).
	BackendURL string
	// HTTPClient issues the requests; nil uses a short-timeout default.
	HTTPClient *http.Client
	// RequestTimeout bounds each RPC via a per-attempt context
	// deadline; 0 selects 5 seconds (batches carry more work than the
	// 2 s single-permit default).
	RequestTimeout time.Duration
	// Metrics, when non-nil, receives fallback instrumentation.
	Metrics *Metrics
	// ReprobeInterval is the nominal spacing between re-probes of
	// /permits/batch while latched onto the legacy fallback; each
	// actual spacing is jittered into [0.5, 1.5)× of it. 0 selects
	// DefaultReprobeInterval; negative disables re-probing (the
	// historical latch-forever behaviour).
	ReprobeInterval time.Duration
	// Seed salts the re-probe jitter stream (mixed with BackendURL).
	Seed int64
	// Clock times re-probes; nil selects the system clock.
	Clock clock.Clock

	legacy    atomic.Bool  // backend has no /permits/batch
	nextProbe atomic.Int64 // unixnano of the next re-probe while legacy
	draws     atomic.Uint64
}

func (c *BatchClient) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 5 * time.Second}
}

func (c *BatchClient) requestTimeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	return 5 * time.Second
}

func (c *BatchClient) reprobeInterval() time.Duration {
	if c.ReprobeInterval == 0 {
		return DefaultReprobeInterval
	}
	if c.ReprobeInterval < 0 {
		return 0 // re-probing disabled
	}
	return c.ReprobeInterval
}

// scheduleReprobe arms the next jittered re-probe from now.
func (c *BatchClient) scheduleReprobe() {
	iv := c.reprobeInterval()
	if iv <= 0 {
		return
	}
	frac := 0.5 + JitterFrac(c.Seed, c.BackendURL, c.draws.Add(1))
	next := clock.Or(c.Clock).Now().Add(time.Duration(frac * float64(iv)))
	c.nextProbe.Store(next.UnixNano())
}

// claimReprobe reports whether this call should re-probe the batch
// endpoint, claiming the due probe with a CAS so concurrent batches
// issue exactly one.
func (c *BatchClient) claimReprobe() bool {
	if c.reprobeInterval() <= 0 {
		return false
	}
	next := c.nextProbe.Load()
	if next == 0 || clock.Or(c.Clock).Now().UnixNano() < next {
		return false
	}
	if !c.nextProbe.CompareAndSwap(next, 0) {
		return false // another caller claimed this probe
	}
	c.scheduleReprobe() // re-arm in case the probe fails
	return true
}

// Batch requests a decision for every entry of reqs, returning the
// decisions in request order. A transport failure or non-OK status
// fails the whole batch — callers treat that like any single-permit
// refresh error (fail safe: no permit, no onloading).
func (c *BatchClient) Batch(ctx context.Context, reqs []PermitRequest) ([]permit.Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	probing := false
	if c.legacy.Load() {
		if !c.claimReprobe() {
			return c.singles(ctx, reqs)
		}
		probing = true
		c.Metrics.batchReprobed()
	}
	rctx, cancel := context.WithTimeout(ctx, c.requestTimeout())
	defer cancel()
	url := c.BackendURL + "/permits/batch"
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, url, nil)
	if err != nil {
		return nil, fmt.Errorf("permitplane: building batch request for %s: %w", url, err)
	}
	sent := newRequestBuf(reqs)
	defer sent.release()
	req.Body = sent.reader()
	req.GetBody = func() (io.ReadCloser, error) { return sent.reader(), nil }
	req.ContentLength = int64(len(sent.b))
	req.Header.Set("Content-Type", "application/json")
	if tc, ok := eventlog.FromContext(ctx); ok {
		eventlog.InjectHTTP(req.Header, tc)
	}
	httpResp, err := c.httpClient().Do(req)
	if err != nil {
		if probing {
			// A dead backend proves nothing about batch support; the
			// singles would fail identically, so surface the error.
			return nil, fmt.Errorf("permitplane: batch re-probe of %s: %w", url, err)
		}
		return nil, fmt.Errorf("permitplane: batch request to %s: %w", url, err)
	}
	defer httpResp.Body.Close()
	switch {
	case httpResp.StatusCode == http.StatusOK:
		if probing {
			c.legacy.Store(false) // batch endpoint is back
		}
	case httpResp.StatusCode == http.StatusNotFound || httpResp.StatusCode == http.StatusMethodNotAllowed:
		// Pre-batch backend: remember, arm the jittered re-probe, and
		// degrade to per-permit GETs.
		c.legacy.Store(true)
		if !probing {
			c.Metrics.batchFellBack()
			c.scheduleReprobe()
		}
		return c.singles(ctx, reqs)
	default:
		return nil, fmt.Errorf("permitplane: batch backend returned %s", httpResp.Status)
	}
	got := getWireBuf()
	defer putWireBuf(got)
	if err := got.readFrom(httpResp.Body, httpResp.ContentLength); err != nil {
		return nil, fmt.Errorf("permitplane: reading batch response: %w", err)
	}
	decisions, ok := parseBatchResponse(got.b, nil)
	if !ok {
		var out plainBatchResponse
		if err := json.NewDecoder(bytes.NewReader(got.b)).Decode(&out); err != nil {
			return nil, fmt.Errorf("permitplane: decoding batch response: %w", err)
		}
		decisions = out.Decisions
	}
	if len(decisions) != len(reqs) {
		return nil, fmt.Errorf("permitplane: batch returned %d decisions for %d requests",
			len(decisions), len(reqs))
	}
	return decisions, nil
}

// requestBuf is the pooled buffer one batch RPC's request body is
// encoded into and sent from. It is never reused for the response, and
// it outlives Do: net/http may still be reading a request body after Do
// returned (a backend that answers before it has read the request — the
// legacy 404 — leaves the transport's writer running) and may ask
// GetBody for a second reader on a retry. So Batch and every reader
// handed out hold a reference each, and the buffer returns to the pool
// when the last one lets go — Batch after it has read the whole
// response, a reader when the transport closes it.
type requestBuf struct {
	*wireBuf
	refs atomic.Int32
}

func newRequestBuf(reqs []PermitRequest) *requestBuf {
	rb := &requestBuf{wireBuf: getWireBuf()}
	rb.b = appendBatchRequest(rb.b[:0], reqs)
	rb.refs.Store(1) // Batch's own
	return rb
}

func (rb *requestBuf) release() {
	if rb.refs.Add(-1) == 0 {
		putWireBuf(rb.wireBuf)
	}
}

// reader hands out one more reader of the encoded body.
func (rb *requestBuf) reader() io.ReadCloser {
	rb.refs.Add(1)
	return &requestBody{Reader: bytes.NewReader(rb.b), buf: rb}
}

type requestBody struct {
	*bytes.Reader
	buf    *requestBuf
	closed atomic.Bool
}

// Close lets go of the buffer; the transport may close a body twice.
func (b *requestBody) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		b.buf.release()
	}
	return nil
}

// Fetch requests a single decision — the Cache.Fetch hook. It rides
// the batch path (a batch of one) so trace propagation, timeouts and
// legacy fallback behave identically for cached and batched callers.
func (c *BatchClient) Fetch(ctx context.Context, device, cell string) (permit.Response, error) {
	out, err := c.Batch(ctx, []PermitRequest{{Device: device, Cell: cell}})
	if err != nil {
		return permit.Response{}, err
	}
	return out[0], nil
}

// singles performs one GET /permit round trip per request — the legacy
// protocol (and the shape of the load the batch RPC exists to avoid).
func (c *BatchClient) singles(ctx context.Context, reqs []PermitRequest) ([]permit.Response, error) {
	out := make([]permit.Response, len(reqs))
	for i, pr := range reqs {
		resp, err := c.single(ctx, pr)
		if err != nil {
			return nil, err
		}
		out[i] = resp
	}
	return out, nil
}

func (c *BatchClient) single(ctx context.Context, pr PermitRequest) (permit.Response, error) {
	rctx, cancel := context.WithTimeout(ctx, c.requestTimeout())
	defer cancel()
	target := fmt.Sprintf("%s/permit?device=%s&cell=%s", c.BackendURL,
		url.QueryEscape(pr.Device), url.QueryEscape(pr.Cell))
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, target, nil)
	if err != nil {
		return permit.Response{}, fmt.Errorf("permitplane: building request for %s: %w", target, err)
	}
	if tc, ok := eventlog.FromContext(ctx); ok {
		eventlog.InjectHTTP(req.Header, tc)
	}
	httpResp, err := c.httpClient().Do(req)
	if err != nil {
		return permit.Response{}, fmt.Errorf("permitplane: requesting %s: %w", target, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return permit.Response{}, fmt.Errorf("permitplane: backend returned %s", httpResp.Status)
	}
	var resp permit.Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return permit.Response{}, fmt.Errorf("permitplane: decoding response: %w", err)
	}
	return resp, nil
}
