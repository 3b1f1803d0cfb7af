package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"threegol/internal/hls"
	"threegol/internal/proxy"
	"threegol/internal/scheduler"
	"threegol/internal/transfer"
)

// Route is one transport available to the client component: a name for
// scheduler reports plus an HTTP client bound to that path (a shaped
// dialer for the ADSL line, a proxied transport for a phone). Cell, when
// known, is the serving cell the path's device reported — the key a
// client-side permit gate checks with the backend.
type Route struct {
	Name   string
	Client *http.Client
	Cell   string
}

// VoDOptions configure a boosted video-on-demand session.
type VoDOptions struct {
	// Algo is the multipath policy; the paper's deployment uses Greedy.
	Algo scheduler.Algo
	// Phones is the admissible set Φ to onload onto (may be empty, which
	// degrades to ADSL-only through the same code path).
	Phones []*Phone
	// PrebufferFrac is the player's pre-buffer target as a fraction of
	// video duration.
	PrebufferFrac float64
	// Quality selects the variant (e.g. "q3"); empty picks the lowest.
	Quality string
}

// VoDResult reports a boosted session, in emulated time (TimeScale
// already applied).
type VoDResult struct {
	Prebuffer time.Duration // startup latency (first-frame delay)
	Total     time.Duration // full download time
	Bytes     int64
	Segments  int
	// SchedulerReport is the underlying transaction report (elapsed in
	// wall-clock, unscaled).
	SchedulerReport *scheduler.Report
}

// vodProxy is the HLS-aware client proxy of §4: it forwards playlist
// requests over the ADSL path, intercepts media playlists to prefetch
// the listed segments in parallel over all paths, and serves the
// player's sequential segment GETs from the prefetch cache.
type vodProxy struct {
	origin *url.URL
	algo   scheduler.Algo
	opts   scheduler.Options

	adsl   *http.Client
	routes []Route

	// ctx scopes the prefetch transaction; close cancels it.
	ctx    context.Context
	cancel context.CancelFunc
	srv    *http.Server // set by listen

	// handlers counts ServeHTTP calls in flight. Add happens only under
	// mu with closed unset, so once close has set it Wait is final.
	handlers sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	cache    *transfer.Cache
	prefetch map[string]bool // segment URL → prefetch in flight/done
	report   *scheduler.Report
	runErr   error
	done     chan struct{}
}

// NewVoDProxy builds the HLS-aware client proxy as an http.Handler the
// player points at: direct is the ADSL route, routes are the admissible
// devices' proxied clients, origin is the upstream base URL. This is the
// deployable (non-emulated) entry point; Home.BoostVoD wraps it for the
// emulated experiments. The handler has no end of session: its prefetch
// runs to completion and its segment buffers are the garbage collector's.
func NewVoDProxy(direct *http.Client, routes []Route, origin string, algo scheduler.Algo, opts scheduler.Options) (http.Handler, error) {
	vp, err := newVoDProxy(direct, routes, origin, algo, opts)
	if err != nil {
		return nil, err
	}
	return vp, nil
}

func newVoDProxy(direct *http.Client, routes []Route, origin string, algo scheduler.Algo, opts scheduler.Options) (*vodProxy, error) {
	u, err := url.Parse(origin)
	if err != nil {
		return nil, fmt.Errorf("core: bad origin URL %q: %w", origin, err)
	}
	if direct == nil {
		direct = http.DefaultClient
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &vodProxy{
		origin:   u,
		algo:     algo,
		opts:     opts,
		adsl:     direct,
		routes:   routes,
		ctx:      ctx,
		cancel:   cancel,
		cache:    transfer.NewCache(),
		prefetch: make(map[string]bool),
		done:     make(chan struct{}),
	}, nil
}

// originURL rebases the request path onto the origin.
func (v *vodProxy) originURL(r *http.Request) string {
	u := *v.origin
	u.Path = strings.TrimSuffix(u.Path, "/") + r.URL.Path
	u.RawQuery = r.URL.RawQuery
	return u.String()
}

// ServeHTTP implements the player-facing reverse proxy.
func (v *vodProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !v.enter() {
		http.Error(w, "session closed", http.StatusServiceUnavailable)
		return
	}
	defer v.handlers.Done()
	target := v.originURL(r)
	if hls.IsPlaylistURI(target) {
		v.servePlaylist(w, r, target)
		return
	}
	// Segment (or anything else): serve from the prefetch cache when the
	// prefetcher has claimed it, else pass through over ADSL.
	if v.claimed(target) {
		body, err := v.cache.Wait(r.Context(), target)
		if err != nil {
			status := http.StatusBadGateway // the prefetch failed: Cache.Fail's error
			if r.Context().Err() != nil {
				status = http.StatusGatewayTimeout
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "video/mp2t")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body) // client disconnects surface on the next request
		return
	}
	v.passthrough(w, r, target)
}

// enter admits one ServeHTTP call unless the session is closed; the
// caller owes handlers.Done.
func (v *vodProxy) enter() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return false
	}
	v.handlers.Add(1)
	return true
}

// listen serves the proxy to one session's player on a loopback port and
// returns its base URL; close stops it.
func (v *vodProxy) listen() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("core: starting VoD proxy listener: %w", err)
	}
	v.srv = &http.Server{Handler: v}
	go v.srv.Serve(ln) //3golvet:allow goroleak — bounded by close's srv.Close, which makes Serve return
	return "http://" + ln.Addr().String(), nil
}

// close ends the session. It cancels the prefetch transaction (a no-op
// once it has finished), closes the server and waits, in this order, for
// every handler in flight to return and for the transaction's paths to
// stop. Only then does nobody hold a cached slice or a buffer bound for
// the cache, and the segment buffers go back for the next session (see
// transfer.Cache).
func (v *vodProxy) close() {
	v.mu.Lock()
	v.closed = true
	v.mu.Unlock()
	v.cancel()
	if v.srv != nil {
		_ = v.srv.Close() // only the listener's close error; the session is over either way
	}
	v.handlers.Wait()
	if v.started() {
		<-v.done
	}
	v.cache.Release()
}

func (v *vodProxy) passthrough(w http.ResponseWriter, r *http.Request, target string) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := v.adsl.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vv := range resp.Header {
		for _, val := range vv {
			w.Header().Add(k, val)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = proxy.Relay(w, resp.Body) // either end hanging up ends the relay; nothing to add
}

// servePlaylist fetches the playlist over ADSL, and when it is a media
// playlist, kicks off the multipath prefetch of its segments before
// handing the playlist to the player.
func (v *vodProxy) servePlaylist(w http.ResponseWriter, r *http.Request, target string) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := v.adsl.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if parsed, err := hls.Parse(bytes.NewReader(body)); err == nil && parsed.Kind == hls.KindMedia {
		v.startPrefetch(target, parsed.Media)
	}
	w.Header().Set("Content-Type", "application/vnd.apple.mpegurl")
	_, _ = w.Write(body) // client disconnects surface on the next request
}

// claimed reports whether the prefetcher owns the given segment URL.
func (v *vodProxy) claimed(target string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.prefetch[target]
}

// startPrefetch launches the scheduler transaction for a media playlist
// (once; re-requests of the same playlist do not restart it).
func (v *vodProxy) startPrefetch(playlistURL string, media *hls.MediaPlaylist) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.prefetch) > 0 {
		return // already prefetching this session
	}
	items := make([]scheduler.Item, 0, len(media.Segments))
	for i, seg := range media.Segments {
		abs, err := resolveRef(playlistURL, seg.URI)
		if err != nil {
			continue
		}
		v.prefetch[abs] = true
		// A segment's length is not known until its response: Size
		// stays 0, so MIN deals segments by count and the core never
		// sizes a piece of one before its GET learns it.
		items = append(items, scheduler.Item{ID: i, Name: abs})
	}
	paths := v.buildPaths()
	go func() {
		rep, err := scheduler.Run(v.ctx, v.algo, items, paths, v.opts)
		v.mu.Lock()
		v.report, v.runErr = rep, err
		v.mu.Unlock()
		if err != nil {
			v.cache.Fail(err) // the handlers waiting for its segments give up
		}
		close(v.done)
	}()
}

// buildPaths assembles the transaction's paths: the ADSL route plus one
// route per admissible phone. Caller holds v.mu or is pre-start.
func (v *vodProxy) buildPaths() []scheduler.Path {
	sink := transfer.CachingSink(v.cache)
	paths := []scheduler.Path{
		&transfer.DownloadPath{PathName: "adsl", Client: v.adsl, Sink: sink},
	}
	for _, r := range v.routes {
		paths = append(paths, &transfer.DownloadPath{
			PathName: r.Name,
			Client:   r.Client,
			Sink:     sink,
		})
	}
	return paths
}

// BoostVoD plays the video at originURL+videoPath through the 3GOL client
// proxy and reports emulated-time results. With an empty Phones set the
// same pipeline degrades to the ADSL baseline.
func (h *Home) BoostVoD(ctx context.Context, origin, masterPath string, opts VoDOptions) (*VoDResult, error) {
	adsl, routes, release := h.routes(opts.Phones)
	defer release()
	vp, err := newVoDProxy(adsl, routes, origin, opts.Algo, scheduler.Options{})
	if err != nil {
		return nil, err
	}
	base, err := vp.listen()
	if err != nil {
		return nil, err
	}
	// Whatever way the session ends, its transaction ends with it and
	// its segment buffers are recycled once nothing can touch them.
	defer vp.close()

	player := &hls.Player{
		// The player sits next to the proxy on the client machine: its
		// requests to the proxy are local and unshaped; the proxy's
		// outbound legs carry the shaping.
		Client:        &http.Client{},
		PrebufferFrac: opts.PrebufferFrac,
	}
	res, err := player.Play(ctx, base+masterPath, opts.Quality)
	if err != nil {
		return nil, fmt.Errorf("core: boosted playback: %w", err)
	}

	out := &VoDResult{
		Prebuffer: h.ScaleDuration(res.PrebufferTime),
		Total:     h.ScaleDuration(res.TotalTime),
		Bytes:     res.Bytes,
		Segments:  res.Segments,
	}
	// Attach the scheduler report when a prefetch ran (it finishes with
	// or before the player's final segment read).
	if vp.started() {
		select {
		case <-vp.done:
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("core: prefetch transaction did not finish")
		}
		out.SchedulerReport, err = vp.outcome()
		if err != nil {
			return nil, fmt.Errorf("core: prefetch transaction: %w", err)
		}
	}
	return out, nil
}

// started reports whether a prefetch transaction was launched.
func (v *vodProxy) started() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.prefetch) > 0
}

// outcome returns the finished prefetch transaction's report and error.
func (v *vodProxy) outcome() (*scheduler.Report, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.report, v.runErr
}

// BaselineVoD plays the video directly over the ADSL line (no 3GOL),
// reporting emulated-time results.
func (h *Home) BaselineVoD(ctx context.Context, origin, masterPath string, prebufferFrac float64, quality string) (*VoDResult, error) {
	adsl := h.ADSLClient()
	defer adsl.CloseIdleConnections()
	player := &hls.Player{Client: adsl, PrebufferFrac: prebufferFrac}
	res, err := player.Play(ctx, strings.TrimSuffix(origin, "/")+masterPath, quality)
	if err != nil {
		return nil, fmt.Errorf("core: baseline playback: %w", err)
	}
	return &VoDResult{
		Prebuffer: h.ScaleDuration(res.PrebufferTime),
		Total:     h.ScaleDuration(res.TotalTime),
		Bytes:     res.Bytes,
		Segments:  res.Segments,
	}, nil
}

// resolveRef resolves a playlist-relative reference.
func resolveRef(base, ref string) (string, error) {
	b, err := url.Parse(base)
	if err != nil {
		return "", err
	}
	r, err := url.Parse(ref)
	if err != nil {
		return "", err
	}
	return b.ResolveReference(r).String(), nil
}
