package eventlog

import (
	"context"
	"net/http"
	"strings"
)

// ctxKey is the private context.Context key for a TraceContext.
type ctxKey struct{}

// NewContext returns ctx carrying tc, so a trace position flows through
// call chains that only pass context (the transfer paths, HTTP
// handlers).
func NewContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, tc)
}

// FromContext extracts the TraceContext carried by ctx, if any.
func FromContext(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(ctxKey{}).(TraceContext)
	return tc, ok && tc.Valid()
}

// HeaderTrace is the propagation header carrying "trace/span" across
// process boundaries: client → proxy → permit backend. The receiving
// process records events parented to the sender's span, so 3goltrace
// can stitch multi-process logs into one causal trace.
const HeaderTrace = "X-3gol-Trace"

// InjectHTTP stamps tc onto h for an outgoing request. A zero tc leaves
// h untouched.
func InjectHTTP(h http.Header, tc TraceContext) {
	if !tc.Valid() {
		return
	}
	h.Set(HeaderTrace, tc.Trace+"/"+tc.Span)
}

// ExtractHTTP reads the propagation header from an incoming request. A
// header the repo did not write is as likely as one it did: each half is
// taken only at most maxIDLen bytes long and made of [0-9A-Za-z_-], and
// the trace must not be empty. Anything else reads as no header, so the
// request starts a fresh trace — tracing never fails a request.
func ExtractHTTP(h http.Header) (TraceContext, bool) {
	trace, span, _ := strings.Cut(h.Get(HeaderTrace), "/")
	if trace == "" || !validID(trace) || !validID(span) {
		return TraceContext{}, false
	}
	return TraceContext{Trace: trace, Span: span}, true
}

// maxIDLen bounds each half of an extracted trace header. The repo's own
// IDs are 16 hex digits; an outside ID is recorded on every span the
// request begins and passed on to the permit backend, so it may not be
// a megabyte long.
const maxIDLen = 64

// validID reports whether s may stand as one half of a trace header.
func validID(s string) bool {
	if len(s) > maxIDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Handler serves the log as JSON Lines — the /debug/events surface on
// 3gold and 3golpermitd. GET only; the payload is a point-in-time copy
// of the (ring) buffer.
func Handler(l *Log) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = l.WriteJSONL(w) // client disconnect; nothing to do
	})
}
