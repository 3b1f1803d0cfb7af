package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"threegol/internal/hls"
)

// depth orders the boundaries an op crosses, outermost first. Each names
// the code that runs between it and the next boundary down:
//
//	client  the op root: hls.Player, the uploader's scheduler.Run, or
//	        the permit BatchClient and its codec
//	proxy   a player → client-proxy request: core's HLS-aware proxy,
//	        transfer.Cache, scheduler bookkeeping (vod workloads only)
//	hop     a route fetch: HTTP transport, proxy.Server relay, netem
//	server  the origin, upload server or permit plane handling the request
type depth int

const (
	depthClient depth = iota
	depthProxy
	depthHop
	depthServer
	numDepths
)

var depthNames = [numDepths]string{"client", "proxy", "hop", "server"}

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch; Parent is 0 on an op root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Wait, on a server span, is the time the handler spent inside
	// reads of the request body and writes of the response: time it was
	// waiting on the hop, not working.
	Wait int64 `json:"wait_ns,omitempty"`

	depth depth
}

// spanRef identifies a span to its children, in a context or in the
// spanHeader of a request.
type spanRef struct{ op, id int64 }

const spanHeader = "X-Bench-Span"

func (r spanRef) String() string { return fmt.Sprintf("%d/%d", r.op, r.id) }

func parseRef(s string) (spanRef, bool) {
	op, id, ok := strings.Cut(s, "/")
	if !ok {
		return spanRef{}, false
	}
	o, err1 := strconv.ParseInt(op, 10, 64)
	i, err2 := strconv.ParseInt(id, 10, 64)
	return spanRef{op: o, id: i}, err1 == nil && err2 == nil
}

type spanKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanKey{}).(spanRef)
	return r, ok
}

// tracer keeps finished spans in memory until the run ends. Every
// method is safe on a nil tracer and then records nothing, so the
// untraced run shares the workload code without sharing its cost.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	// adopt parents requests that reach a decorator with no caller
	// context: the client proxy issues its prefetch from a background
	// context, so the player's playlist request that triggered it is
	// remembered here. Only single-client workloads rely on it.
	adopt atomic.Pointer[spanRef]
}

func newTracer() *tracer { return &tracer{epoch: now()} }

// openSpan is a started span; end records it once.
type openSpan struct {
	t    *tracer
	s    span
	once sync.Once
}

func (t *tracer) begin(parent spanRef, d depth, name, key string) *openSpan {
	if t == nil {
		return nil
	}
	id := t.nextID.Add(1)
	op := parent.op
	if parent.id == 0 {
		op = id // an op root names its op
	}
	return &openSpan{t: t, s: span{
		ID: id, Parent: parent.id, Op: op, Name: name, Layer: depthNames[d], Key: key,
		Start: int64(since(t.epoch)), depth: d,
	}}
}

func (o *openSpan) ref() spanRef { return spanRef{op: o.s.Op, id: o.s.ID} }

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.once.Do(func() {
		o.s.End = int64(since(o.t.epoch))
		o.t.mu.Lock()
		o.t.spans = append(o.t.spans, o.s)
		o.t.mu.Unlock()
	})
}

// startOp opens an op root and returns the context its calls carry.
func (t *tracer) startOp(ctx context.Context, name string) (context.Context, *openSpan) {
	if t == nil {
		return ctx, nil
	}
	sp := t.begin(spanRef{}, depthClient, name, "")
	return withSpan(ctx, sp.ref()), sp
}

// reset drops everything recorded so far (the warm-up's spans).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// tracedTransport records one span per request, from RoundTrip until
// the response body is closed, and stamps the request with spanHeader
// so the server-side decorator can name its parent.
type tracedTransport struct {
	base  http.RoundTripper
	t     *tracer
	depth depth
	name  string
	// adopts marks the player's transport: its playlist requests become
	// the parent of the fetches the client proxy makes on their behalf.
	adopts bool
}

// transport wraps base; on a nil tracer it returns base unchanged.
func (t *tracer) transport(base http.RoundTripper, d depth, name string) http.RoundTripper {
	if t == nil {
		return base
	}
	return &tracedTransport{base: base, t: t, depth: d, name: name, adopts: d == depthProxy}
}

// client is transport applied to an http.Client in place.
func (t *tracer) client(c *http.Client, d depth, name string) *http.Client {
	base := c.Transport
	if base == nil {
		base = http.DefaultTransport
	}
	c.Transport = t.transport(base, d, name)
	return c
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := spanFrom(req.Context())
	if !ok {
		p := tt.t.adopt.Load()
		if p == nil {
			return tt.base.RoundTrip(req)
		}
		parent = *p
	}
	sp := tt.t.begin(parent, tt.depth, tt.name, req.URL.Path)
	if tt.adopts && hls.IsPlaylistURI(req.URL.Path) {
		ref := sp.ref()
		tt.t.adopt.Store(&ref)
	}
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, sp.ref().String())
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends its span when the response body is drained or closed.
type spanBody struct {
	io.ReadCloser
	sp *openSpan
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.sp.end()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.sp.end()
	return b.ReadCloser.Close()
}

// handler records one server span per stamped request; on a nil tracer
// it returns next unchanged.
func (t *tracer) handler(next http.Handler, name string) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := parseRef(r.Header.Get(spanHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		sp := t.begin(parent, depthServer, name, r.URL.Path)
		var wait atomic.Int64
		r.Body = &timedBody{ReadCloser: r.Body, wait: &wait}
		next.ServeHTTP(&timedWriter{ResponseWriter: w, wait: &wait}, r)
		sp.s.Wait = wait.Load()
		sp.end()
	})
}

// timedBody and timedWriter add up the time a handler spends inside
// request-body reads and response writes.
type timedBody struct {
	io.ReadCloser
	wait *atomic.Int64
}

func (b *timedBody) Read(p []byte) (int, error) {
	t0 := now()
	n, err := b.ReadCloser.Read(p)
	b.wait.Add(int64(since(t0)))
	return n, err
}

type timedWriter struct {
	http.ResponseWriter
	wait *atomic.Int64
}

func (w *timedWriter) Write(p []byte) (int, error) {
	t0 := now()
	n, err := w.ResponseWriter.Write(p)
	w.wait.Add(int64(since(t0)))
	return n, err
}

// attribution is the per-layer table of one traced window: the mean
// wall time per op during which each depth was the deepest one active.
type attribution struct {
	ops       int
	selfMS    [numDepths]float64 // rows; they sum to opMS
	opMS      float64
	overrunPC float64 // time spans stayed open past their op root, % of op wall time
	orphans   int     // spans whose op root was not recorded
}

// attribute sweeps each op's spans: an instant of the op belongs to the
// deepest boundary with a span open at that instant, so parallel route
// fetches count once and the rows of one op sum to its wall time. A
// server span is open for as long as its body streams, so the share of
// it the handler spent waiting in reads and writes (span.Wait) is moved
// from the server's row to the hop's. Spans are clipped to their op
// root; what they run past it (a cancelled replica still draining) is
// reported as overrun, not as part of the op.
func attribute(spans []span) attribution {
	byOp := make(map[int64][]span)
	roots := make(map[int64]span)
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
		if s.Parent == 0 {
			roots[s.Op] = s
		}
	}
	var a attribution
	var overrun float64
	for op, ss := range byOp {
		root, ok := roots[op]
		if !ok {
			a.orphans += len(ss)
			continue
		}
		a.ops++
		a.opMS += float64(root.End-root.Start) / 1e6
		// atOrBelow[d] is the part of the op covered by spans at depth ≥ d.
		var atOrBelow [numDepths + 1]float64
		var serverOpen, serverWait int64
		for d := depthClient; d < numDepths; d++ {
			var iv [][2]int64
			for _, s := range ss {
				if s.depth < d {
					continue
				}
				start, end := max(s.Start, root.Start), min(s.End, root.End)
				if end > start {
					iv = append(iv, [2]int64{start, end})
				}
				if d == depthClient {
					overrun += float64(max(s.End-max(s.Start, root.End), 0)) / 1e6
				}
				if d == depthServer {
					serverOpen += s.End - s.Start
					serverWait += s.Wait
				}
			}
			atOrBelow[d] = float64(unionLength(iv)) / 1e6
		}
		for d := depthClient; d < numDepths; d++ {
			a.selfMS[d] += atOrBelow[d] - atOrBelow[d+1]
		}
		if serverOpen > 0 {
			waiting := atOrBelow[depthServer] * float64(serverWait) / float64(serverOpen)
			a.selfMS[depthServer] -= waiting
			a.selfMS[depthHop] += waiting
		}
	}
	if a.ops > 0 {
		n := float64(a.ops)
		if a.opMS > 0 {
			a.overrunPC = 100 * overrun / a.opMS
		}
		for d := range a.selfMS {
			a.selfMS[d] /= n
		}
		a.opMS /= n
	}
	return a
}

// unionLength is the total length of the union of intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// writeSpans writes the spans as JSONL, one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating span directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing span: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("flushing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}
