// Package hls implements the subset of Apple HTTP Live Streaming the
// paper's video-on-demand application uses: extended M3U (m3u8) master
// and media playlists, a synthetic origin server with multiple qualities,
// and a player model that measures pre-buffering and total download time.
//
// The paper's client component intercepts the m3u8 playlist and uses the
// multipath scheduler to prefetch the listed segments in parallel; this
// package supplies the playlist machinery and the traffic.
package hls

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Variant is one quality level advertised by a master playlist.
type Variant struct {
	URI       string
	Bandwidth int // bits per second
}

// MasterPlaylist lists the available variants of a video.
type MasterPlaylist struct {
	Variants []Variant
}

// Encode renders the master playlist in m3u8 syntax.
func (m *MasterPlaylist) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "#EXTM3U")
	fmt.Fprintln(bw, "#EXT-X-VERSION:3")
	for _, v := range m.Variants {
		fmt.Fprintf(bw, "#EXT-X-STREAM-INF:BANDWIDTH=%d\n%s\n", v.Bandwidth, v.URI)
	}
	return bw.Flush()
}

// String renders the playlist to a string.
func (m *MasterPlaylist) String() string {
	var sb strings.Builder
	_ = m.Encode(&sb) // strings.Builder writes cannot fail
	return sb.String()
}

// ByBandwidth returns the variants sorted ascending by bandwidth.
func (m *MasterPlaylist) ByBandwidth() []Variant {
	out := append([]Variant(nil), m.Variants...)
	sort.Slice(out, func(i, j int) bool { return out[i].Bandwidth < out[j].Bandwidth })
	return out
}

// Segment is one media segment of a media playlist.
type Segment struct {
	URI      string
	Duration float64 // seconds of video
}

// MediaPlaylist lists the segments of one variant.
type MediaPlaylist struct {
	TargetDuration float64
	Segments       []Segment
	Ended          bool // EXT-X-ENDLIST present (VoD)
}

// Encode renders the media playlist in m3u8 syntax.
func (m *MediaPlaylist) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "#EXTM3U")
	fmt.Fprintln(bw, "#EXT-X-VERSION:3")
	fmt.Fprintf(bw, "#EXT-X-TARGETDURATION:%d\n", int(m.TargetDuration+0.999))
	fmt.Fprintln(bw, "#EXT-X-MEDIA-SEQUENCE:0")
	for _, s := range m.Segments {
		fmt.Fprintf(bw, "#EXTINF:%.3f,\n%s\n", s.Duration, s.URI)
	}
	if m.Ended {
		fmt.Fprintln(bw, "#EXT-X-ENDLIST")
	}
	return bw.Flush()
}

// String renders the playlist to a string.
func (m *MediaPlaylist) String() string {
	var sb strings.Builder
	_ = m.Encode(&sb) // strings.Builder writes cannot fail
	return sb.String()
}

// TotalDuration returns the summed segment durations in seconds.
func (m *MediaPlaylist) TotalDuration() float64 {
	var t float64
	for _, s := range m.Segments {
		t += s.Duration
	}
	return t
}

// Kind classifies a parsed playlist.
type Kind int

// Playlist kinds.
const (
	KindMaster Kind = iota
	KindMedia
)

// Parsed is the result of Parse: exactly one of Master or Media is set.
type Parsed struct {
	Kind   Kind
	Master *MasterPlaylist
	Media  *MediaPlaylist
}

// Parse reads an m3u8 playlist and classifies it as master (contains
// EXT-X-STREAM-INF) or media (contains EXTINF). It is the parser the
// HLS-aware client proxy applies to intercepted playlist responses.
func Parse(r io.Reader) (*Parsed, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1024*1024) // lines up to 1 MB; the buffer grows from the scanner's default
	var first string
	for sc.Scan() {
		first = strings.TrimSpace(sc.Text())
		if first != "" {
			break
		}
	}
	if first != "#EXTM3U" {
		return nil, fmt.Errorf("hls: not an extended M3U playlist (first line %q)", first)
	}

	master := &MasterPlaylist{}
	media := &MediaPlaylist{}
	var pendingVariant *Variant
	var pendingSegDur = -1.0
	isMaster, isMedia := false, false

	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "#EXT-X-STREAM-INF:"):
			isMaster = true
			v := Variant{}
			attrs := parseAttrs(strings.TrimPrefix(line, "#EXT-X-STREAM-INF:"))
			if bw, err := strconv.Atoi(attrs["BANDWIDTH"]); err == nil {
				v.Bandwidth = bw
			}
			pendingVariant = &v
		case strings.HasPrefix(line, "#EXTINF:"):
			isMedia = true
			spec := strings.TrimPrefix(line, "#EXTINF:")
			if i := strings.IndexByte(spec, ','); i >= 0 {
				spec = spec[:i]
			}
			d, ok := parseDuration(strings.TrimSpace(spec))
			if !ok {
				return nil, fmt.Errorf("hls: bad EXTINF duration %q", line)
			}
			pendingSegDur = d
		case strings.HasPrefix(line, "#EXT-X-TARGETDURATION:"):
			d, ok := parseDuration(strings.TrimPrefix(line, "#EXT-X-TARGETDURATION:"))
			if !ok {
				return nil, fmt.Errorf("hls: bad target duration %q", line)
			}
			media.TargetDuration = d
		case line == "#EXT-X-ENDLIST":
			media.Ended = true
		case strings.HasPrefix(line, "#"):
			// Unknown/irrelevant tag: ignore (forward compatible).
		default:
			// A URI line closes the pending tag.
			switch {
			case pendingVariant != nil:
				pendingVariant.URI = line
				master.Variants = append(master.Variants, *pendingVariant)
				pendingVariant = nil
			case pendingSegDur >= 0:
				media.Segments = append(media.Segments, Segment{URI: line, Duration: pendingSegDur})
				pendingSegDur = -1
			default:
				return nil, fmt.Errorf("hls: unexpected URI line %q", line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("hls: reading playlist: %w", err)
	}
	switch {
	case isMaster && isMedia:
		return nil, fmt.Errorf("hls: playlist mixes STREAM-INF and EXTINF")
	case isMaster:
		return &Parsed{Kind: KindMaster, Master: master}, nil
	case isMedia:
		return &Parsed{Kind: KindMedia, Media: media}, nil
	default:
		return nil, fmt.Errorf("hls: playlist has neither variants nor segments")
	}
}

// maxDuration bounds, in seconds, any duration a playlist states: one
// day of video. The VoD proxy sizes a segment from its duration, so a
// larger value is a malformed playlist, not a segment to fetch.
const maxDuration = 24 * 60 * 60

// parseDuration parses a playlist duration, reporting false for text
// that is not a number and for a value that is NaN, infinite, negative
// or above maxDuration.
func parseDuration(s string) (float64, bool) {
	d, err := strconv.ParseFloat(s, 64)
	return d, err == nil && d >= 0 && d <= maxDuration // NaN fails both
}

// parseAttrs parses the KEY=VALUE[,KEY=VALUE...] attribute syntax of
// EXT-X-STREAM-INF, honouring quoted values containing commas.
func parseAttrs(s string) map[string]string {
	attrs := make(map[string]string)
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			break
		}
		key := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		var val string
		if strings.HasPrefix(s, `"`) {
			end := strings.IndexByte(s[1:], '"')
			if end < 0 {
				val, s = s[1:], ""
			} else {
				val = s[1 : 1+end]
				s = s[end+2:]
				s = strings.TrimPrefix(s, ",")
			}
		} else {
			end := strings.IndexByte(s, ',')
			if end < 0 {
				val, s = s, ""
			} else {
				val, s = s[:end], s[end+1:]
			}
		}
		attrs[key] = val
	}
	return attrs
}

// IsPlaylistURI reports whether the URI names an m3u8 playlist — the test
// the HLS-aware proxy applies to decide whether to intercept a response.
func IsPlaylistURI(uri string) bool {
	u := uri
	if i := strings.IndexAny(u, "?#"); i >= 0 {
		u = u[:i]
	}
	return strings.HasSuffix(strings.ToLower(u), ".m3u8")
}
