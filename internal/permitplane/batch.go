package permitplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"threegol/internal/obs/eventlog"
	"threegol/internal/permit"
)

// requestTimeout bounds each batch RPC via a per-attempt context
// deadline (batches carry more work than a single permit decision).
const requestTimeout = 5 * time.Second

// BatchClient issues grant/refresh requests against a permit backend
// over the batch RPC, POST /permits/batch. A backend that does not
// serve the route fails the batch like any other non-OK status.
type BatchClient struct {
	// BackendURL is the backend's base URL (scheme://host:port).
	BackendURL string
	// HTTPClient issues the requests; nil uses a short-timeout default.
	HTTPClient *http.Client
}

func (c *BatchClient) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: requestTimeout}
}

// Batch requests a decision for every entry of reqs, returning the
// decisions in request order. A transport failure or non-OK status
// fails the whole batch — callers treat that like any single-permit
// refresh error (fail safe: no permit, no onloading).
func (c *BatchClient) Batch(ctx context.Context, reqs []PermitRequest) ([]permit.Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
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
		return nil, fmt.Errorf("permitplane: batch request to %s: %w", url, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
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
// returned (a backend that answers before it has read the request — a
// 400 or 413 — leaves the transport's writer running) and may ask
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
// the batch path (a batch of one) so trace propagation and timeouts
// behave identically for cached and batched callers.
func (c *BatchClient) Fetch(ctx context.Context, device, cell string) (permit.Response, error) {
	out, err := c.Batch(ctx, []PermitRequest{{Device: device, Cell: cell}})
	if err != nil {
		return permit.Response{}, err
	}
	return out[0], nil
}
