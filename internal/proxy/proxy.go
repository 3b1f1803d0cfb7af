// Package proxy implements the 3GOL device component's HTTP proxy: it
// accepts requests arriving over the home Wi-Fi and pipes them through
// the device's 3G interface (§4.1). Plain HTTP requests (absolute-form,
// as sent by clients configured with this proxy) are forwarded with a
// transport bound to the 3G dialer; CONNECT tunnels are spliced raw.
//
// The proxy exposes two policy hooks that the two deployment modes of the
// paper use: Admit gates service on a live permit (network-integrated
// mode) or remaining quota (multi-provider mode), and OnBytes feeds the
// quota tracker with 3G usage.
package proxy

import (
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"threegol/internal/clock"
	"threegol/internal/netem"
	"threegol/internal/obs/eventlog"
)

// Dialer is the subset of net.Dialer the proxy needs; netem.Dialer and
// net.Dialer both satisfy it.
type Dialer interface {
	DialContext(ctx context.Context, network, addr string) (net.Conn, error)
}

// Server is the device-side proxy. Configure, then serve it on the Wi-Fi
// listener with http.Serve(listener, server).
type Server struct {
	// Dial reaches the origin over the 3G interface. Required.
	Dial Dialer
	// Admit, when non-nil, is consulted per request; a false return
	// yields 503 Service Unavailable (no permit / quota exhausted). The
	// context carries the request's TraceContext (extracted from the
	// X-3gol-Trace header), so permit checks made inside Admit join the
	// client's trace.
	Admit func(ctx context.Context) bool
	// OnBytes, when non-nil, receives the bytes moved over the 3G
	// interface as they move — request bodies and tunnels as the transport
	// reads them, a response once it is relayed — feeding the quota
	// tracker.
	OnBytes func(n int64)
	// Logf, when non-nil, receives diagnostic messages.
	Logf func(format string, args ...any)
	// Metrics receives request/byte/latency instrumentation (see
	// NewMetrics); the zero value records nothing.
	Metrics Metrics
	// Clock times request service for Metrics; nil selects the system
	// clock.
	Clock clock.Clock
	// Debug, when non-nil, serves origin-form requests under /debug/
	// (the /debug/metrics endpoint) instead of proxying them. It is
	// consulted before the Admit gate: observability must not disappear
	// exactly when admission is denied.
	Debug http.Handler
	// Events, when non-nil, records a flight-recorder span per proxied
	// request, parented to the client's X-3gol-Trace header when
	// present — the cross-process half of the end-to-end trace.
	Events *eventlog.Log

	transportOnce sync.Once
	transport     *http.Transport

	bytesTotal atomic.Int64
}

// BytesTotal reports all bytes the proxy has moved over the 3G interface.
func (s *Server) BytesTotal() int64 { return s.bytesTotal.Load() }

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) tr() *http.Transport {
	s.transportOnce.Do(func() {
		s.transport = &http.Transport{
			DialContext:         s.Dial.DialContext,
			MaxIdleConnsPerHost: 8,
			IdleConnTimeout:     30 * time.Second,
			// The 3G path is the product here: no proxy-of-proxy.
			Proxy: nil,
		}
	})
	return s.transport
}

// ServeHTTP implements http.Handler for proxy-form requests.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.Debug != nil && !r.URL.IsAbs() && strings.HasPrefix(r.URL.Path, "/debug/") {
		s.Debug.ServeHTTP(w, r)
		return
	}
	if tc, ok := eventlog.ExtractHTTP(r.Header); ok {
		// The client's trace position rides into the request context so
		// Admit (and its permit check) extends the same trace.
		r = r.WithContext(eventlog.NewContext(r.Context(), tc))
	}
	if s.Dial == nil {
		s.Metrics.Requests.With(outcomeError).Inc()
		http.Error(w, "proxy misconfigured: no dialer", http.StatusInternalServerError)
		return
	}
	if s.Admit != nil && !s.admit(r.Context()) {
		s.Metrics.Requests.With(outcomeDenied).Inc()
		tc, _ := eventlog.FromContext(r.Context())
		s.Events.Point(tc, "proxy.denied", "host", r.Host)
		http.Error(w, "3GOL onloading not permitted", http.StatusServiceUnavailable)
		return
	}
	if r.Method == http.MethodConnect {
		s.serveTunnel(w, r)
		return
	}
	if !r.URL.IsAbs() {
		s.Metrics.Requests.With(outcomeError).Inc()
		http.Error(w, "this is a proxy; absolute-form request required", http.StatusBadRequest)
		return
	}
	s.serveHTTP1(w, r)
}

// admit consults the Admit hook, timing it for Metrics.
func (s *Server) admit(ctx context.Context) bool {
	clk := clock.Or(s.Clock)
	t0 := clk.Now()
	ok := s.Admit(ctx)
	s.Metrics.AdmitSeconds.Observe(clk.Since(t0).Seconds())
	return ok
}

func (s *Server) serveHTTP1(w http.ResponseWriter, r *http.Request) {
	clk := clock.Or(s.Clock)
	t0 := clk.Now()
	tc, _ := eventlog.FromContext(r.Context())
	sp := s.Events.Begin(tc, "proxy.request", "method", r.Method, "host", r.URL.Host)
	out := r.Clone(r.Context())
	out.RequestURI = "" // client-side field must be empty for RoundTrip
	removeHopHeaders(out.Header)
	if out.Body != nil && out.Body != http.NoBody {
		// Charged as the 3G transport reads it: a chunked body declares no
		// length, and an aborted request carried what it carried.
		out.Body = &accountingBody{s: s, ReadCloser: out.Body}
	}

	resp, err := s.tr().RoundTrip(out)
	if err != nil {
		s.Metrics.Requests.With(outcomeError).Inc()
		sp.End("outcome", "error", "error", err.Error())
		s.logf("proxy: %s %s: %v", r.Method, r.URL, err)
		http.Error(w, "upstream error: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	removeHopHeaders(resp.Header)
	for k, vv := range resp.Header {
		for _, v := range vv {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	n, err := Relay(w, resp.Body)
	s.account(n + requestLineBytes(r))
	s.Metrics.Requests.With(outcomeProxied).Inc()
	s.Metrics.RequestSeconds.Observe(clk.Since(t0).Seconds())
	sp.End("outcome", "ok", "status", eventlog.Int(int64(resp.StatusCode)),
		"bytes", eventlog.Int(n))
	if err != nil && !errors.Is(err, context.Canceled) {
		s.logf("proxy: copying response for %s: %v", r.URL, err)
	}
}

// Relay copies src to dst until EOF through a buffer as large as one read
// of a shaped connection gets, from netem's free list, so that a relay
// adds no syscalls to those the link's rate asks for. The ReadFrom of dst
// is hidden: an http.ResponseWriter's ends in net's generic copy loop,
// which allocates 32 KB per call, and io.Discard's reads 8 KB at a time.
//
//3golvet:allow ctxprop — a copy loop; cancellation reaches it through the request context that src and dst were made under
func Relay(dst io.Writer, src io.Reader) (int64, error) {
	buf := netem.Buffer()
	defer netem.Release(buf)
	return io.CopyBuffer(struct{ io.Writer }{dst}, src, buf)
}

func (s *Server) serveTunnel(w http.ResponseWriter, r *http.Request) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "hijacking unsupported", http.StatusInternalServerError)
		return
	}
	upstream, err := s.Dial.DialContext(r.Context(), "tcp", r.Host)
	if err != nil {
		s.Metrics.Requests.With(outcomeError).Inc()
		http.Error(w, "cannot reach "+r.Host, http.StatusBadGateway)
		return
	}
	s.Metrics.Requests.With(outcomeTunnel).Inc()
	tunnelTC, _ := eventlog.FromContext(r.Context())
	s.Events.Point(tunnelTC, "proxy.tunnel", "host", r.Host)
	client, buf, err := hj.Hijack()
	if err != nil {
		upstream.Close()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer client.Close()
	defer upstream.Close()
	buf.WriteString("HTTP/1.1 200 Connection Established\r\n\r\n")
	buf.Flush()

	// Account incrementally so quota tracking sees tunnel traffic while
	// the tunnel is still open (keep-alive tunnels can live for minutes).
	done := make(chan struct{}, 2)
	go func() { io.Copy(&accountingWriter{s: s, w: upstream}, client); done <- struct{}{} }()
	go func() { io.Copy(&accountingWriter{s: s, w: client}, upstream); done <- struct{}{} }()
	<-done
	// Half-close semantics: give the other direction a moment, then tear
	// down (both deferred Closes unblock the second copy).
	select {
	case <-done:
	case <-time.After(500 * time.Millisecond):
	}
}

// accountingWriter charges every byte written through it to the proxy's
// 3G usage counters.
type accountingWriter struct {
	s *Server
	w io.Writer
}

func (a *accountingWriter) Write(p []byte) (int, error) {
	n, err := a.w.Write(p)
	a.s.account(int64(n))
	return n, err
}

// accountingBody charges a forwarded request's body as the 3G transport
// reads it.
type accountingBody struct {
	s *Server
	io.ReadCloser
}

func (a *accountingBody) Read(p []byte) (int, error) {
	n, err := a.ReadCloser.Read(p)
	a.s.account(int64(n))
	return n, err
}

func (s *Server) account(n int64) {
	if n <= 0 {
		return
	}
	s.bytesTotal.Add(n)
	s.Metrics.Bytes.Add(n)
	if s.OnBytes != nil {
		s.OnBytes(n)
	}
}

// requestLineBytes estimates the uplink bytes of the forwarded request
// line (headers are noise at 3GOL scales; the body is counted as read).
func requestLineBytes(r *http.Request) int64 {
	return int64(len(r.Method) + len(r.URL.String()) + 16)
}

var hopHeaders = []string{
	"Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

func removeHopHeaders(h http.Header) {
	for _, k := range hopHeaders {
		h.Del(k)
	}
}

// ListenAndServe starts the proxy on addr and returns the bound listener
// address (useful with ":0") and a shutdown func. ctx scopes the bind
// and becomes the base context of every served request, so trace
// propagation and cancellation arriving with the caller's context reach
// the serve loop. The shutdown func joins the serve goroutine and
// surfaces its error when the server died for a reason other than the
// shutdown itself.
func (s *Server) ListenAndServe(ctx context.Context, addr string) (string, func() error, error) {
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", addr)
	if err != nil {
		return "", nil, err
	}
	return ln.Addr().String(), s.Serve(ctx, ln), nil
}

// Serve starts the proxy on a listener the caller made — the emulated
// home hands it one whose accepted connections are buffer-bounded — and
// returns ListenAndServe's shutdown func. The listener is the server's
// from here on.
func (s *Server) Serve(ctx context.Context, ln net.Listener) func() error {
	srv := &http.Server{
		Handler:     s,
		ErrorLog:    log.New(io.Discard, "", 0),
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	return func() error {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		err := srv.Shutdown(sctx)
		if serr := <-serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
}
