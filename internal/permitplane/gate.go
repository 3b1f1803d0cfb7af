package permitplane

import (
	"context"
	"errors"
	"net/http"
)

// ErrNotPermitted is returned through a gated route when its permit
// check fails: the device's serving cell is congested (or the backend is
// unreachable, which fails safe). The scheduler treats it like any
// transfer failure — the item requeues onto other paths, and repeated
// denials trip the path's circuit breaker, which is exactly the
// behaviour a revoked permit should produce.
var ErrNotPermitted = errors.New("permitplane: no valid permit for path")

// Gate puts a client-side permit gate on next, a route's HTTP
// transport: every request first consults allowed (normally
// Cache.Allowed, so the check is a cache hit on the fast path) and, when
// the route may not onload right now, fails with ErrNotPermitted without
// reaching next. The error survives http.Client's wrapping, so errors.Is
// finds it in what a path returns. Gating the transport rather than the
// path leaves the path as it is: an upload path still carries pieces.
func Gate(next http.RoundTripper, allowed func(ctx context.Context) bool) http.RoundTripper {
	return gate{next: next, allowed: allowed}
}

type gate struct {
	next    http.RoundTripper
	allowed func(ctx context.Context) bool
}

func (g gate) RoundTrip(req *http.Request) (*http.Response, error) {
	if !g.allowed(req.Context()) {
		if req.Body != nil {
			req.Body.Close() // a RoundTripper closes the body on every path out
		}
		return nil, ErrNotPermitted
	}
	return g.next.RoundTrip(req)
}

// CloseIdleConnections passes http.Client's call on to next, so a gated
// client still releases its pooled connections.
func (g gate) CloseIdleConnections() {
	if c, ok := g.next.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}
