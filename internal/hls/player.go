package hls

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"threegol/internal/clock"
	"threegol/internal/proxy"
)

// PlayerResult reports what a playback session measured.
type PlayerResult struct {
	// PrebufferTime is the delay from the initial playlist request until
	// the pre-buffer target was filled — the paper's startup latency
	// metric ("the measured delay from the initial request of the video
	// to the first frame displayed by the player").
	PrebufferTime time.Duration
	// TotalTime is the delay until the last segment finished downloading.
	TotalTime time.Duration
	// Bytes is the total media bytes received.
	Bytes int64
	// Segments is the number of media segments downloaded.
	Segments int
	// Quality is the variant name that was played.
	Quality string
}

// Player models an HLS VoD client: it fetches the master playlist, picks
// a variant, fetches the media playlist, then requests segments
// sequentially, one at a time, in decode order — exactly the access
// pattern of the players the paper augments. The 3GOL client proxy sits
// between Player and origin and accelerates it transparently.
type Player struct {
	// Client issues the player's HTTP requests (typically pointed at the
	// 3GOL client proxy, or shaped directly at the origin for the ADSL
	// baseline). Required.
	Client *http.Client
	// PrebufferFrac is the fraction of the video duration that must be
	// buffered before playout starts (the paper sweeps 20%..100%).
	PrebufferFrac float64
	// Clock measures playback timings; nil selects the system clock.
	Clock clock.Clock
}

// Play downloads the video variant named quality from the master
// playlist at masterURL and reports timing. An empty quality picks the
// lowest bandwidth variant.
func (p *Player) Play(ctx context.Context, masterURL, quality string) (*PlayerResult, error) {
	if p.Client == nil {
		return nil, fmt.Errorf("hls: Player.Client is nil")
	}
	clk := clock.Or(p.Clock)
	start := clk.Now()

	master, err := p.fetchPlaylist(ctx, masterURL)
	if err != nil {
		return nil, fmt.Errorf("hls: fetching master playlist: %w", err)
	}
	if master.Kind != KindMaster {
		return nil, fmt.Errorf("hls: %s is not a master playlist", masterURL)
	}
	variant, err := pickVariant(master.Master, quality)
	if err != nil {
		return nil, err
	}
	mediaURL, err := ResolveRef(masterURL, variant.URI)
	if err != nil {
		return nil, err
	}
	media, err := p.fetchPlaylist(ctx, mediaURL)
	if err != nil {
		return nil, fmt.Errorf("hls: fetching media playlist: %w", err)
	}
	if media.Kind != KindMedia {
		return nil, fmt.Errorf("hls: %s is not a media playlist", mediaURL)
	}

	total := media.Media.TotalDuration()
	target := total * p.PrebufferFrac
	res := &PlayerResult{Quality: variant.URI}

	var buffered float64
	for _, seg := range media.Media.Segments {
		segURL, err := ResolveRef(mediaURL, seg.URI)
		if err != nil {
			return nil, err
		}
		n, err := p.fetchSegment(ctx, segURL)
		if err != nil {
			return nil, fmt.Errorf("hls: fetching %s: %w", seg.URI, err)
		}
		res.Bytes += n
		res.Segments++
		buffered += seg.Duration
		if res.PrebufferTime == 0 && (target <= 0 || buffered >= target-1e-9) {
			res.PrebufferTime = clk.Since(start)
		}
	}
	res.TotalTime = clk.Since(start)
	if res.PrebufferTime == 0 {
		res.PrebufferTime = res.TotalTime
	}
	return res, nil
}

func pickVariant(m *MasterPlaylist, quality string) (Variant, error) {
	if len(m.Variants) == 0 {
		return Variant{}, fmt.Errorf("hls: master playlist has no variants")
	}
	if quality == "" {
		return m.ByBandwidth()[0], nil
	}
	for _, v := range m.Variants {
		if containsSegmentName(v.URI, quality) {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("hls: no variant matching %q", quality)
}

// containsSegmentName reports whether the URI has a path segment equal to
// name (so "q1" matches "q1/playlist.m3u8" but not "q10/playlist.m3u8").
func containsSegmentName(uri, name string) bool {
	rest := uri
	for len(rest) > 0 {
		var seg string
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			seg, rest = rest[:i], rest[i+1:]
		} else {
			seg, rest = rest, ""
		}
		if seg == name {
			return true
		}
	}
	return false
}

func (p *Player) fetchPlaylist(ctx context.Context, u string) (*Parsed, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return Parse(resp.Body)
}

func (p *Player) fetchSegment(ctx context.Context, u string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := p.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %s", resp.Status)
	}
	return proxy.Relay(io.Discard, resp.Body) // in the steps a shaped connection reads in
}

// ResolveRef resolves a possibly relative playlist reference against its
// base URL.
func ResolveRef(base, ref string) (string, error) {
	b, err := url.Parse(base)
	if err != nil {
		return "", fmt.Errorf("hls: bad base URL %q: %w", base, err)
	}
	r, err := url.Parse(ref)
	if err != nil {
		return "", fmt.Errorf("hls: bad reference %q: %w", ref, err)
	}
	return b.ResolveReference(r).String(), nil
}
