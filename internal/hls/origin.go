package hls

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"path"
	"strconv"
	"strings"
	"sync"
)

// Quality describes one encoded rendition of a video.
type Quality struct {
	Name    string
	Bitrate int // bits per second
}

// BipBopQualities are the four renditions of Apple's sample HLS stream
// ("bipbop") that the paper's Fig. 6/7 experiments use: Q1=200 kbps,
// Q2=311 kbps, Q3=484 kbps, Q4=738 kbps.
var BipBopQualities = []Quality{
	{Name: "q1", Bitrate: 200_000},
	{Name: "q2", Bitrate: 311_000},
	{Name: "q3", Bitrate: 484_000},
	{Name: "q4", Bitrate: 738_000},
}

// Video describes a synthetic VoD asset.
type Video struct {
	Name       string
	Duration   float64 // seconds; the paper uses 200 s (median YouTube length)
	SegmentDur float64 // seconds per segment; the paper keeps bipbop's 10 s
	Qualities  []Quality
}

// BipBop returns the paper's test video: 200 s, 10 s segments, four
// qualities.
func BipBop() Video {
	return Video{Name: "bipbop", Duration: 200, SegmentDur: 10, Qualities: BipBopQualities}
}

// NumSegments returns the segment count (ceil of duration/segmentDur).
func (v Video) NumSegments() int {
	n := int(v.Duration / v.SegmentDur)
	if float64(n)*v.SegmentDur < v.Duration {
		n++
	}
	return n
}

// SegmentSize returns the byte size of segment i at the given bitrate.
func (v Video) SegmentSize(q Quality, i int) int {
	dur := v.SegmentDur
	if last := v.NumSegments() - 1; i == last {
		if rem := v.Duration - float64(last)*v.SegmentDur; rem > 0 {
			dur = rem
		}
	}
	return int(float64(q.Bitrate) * dur / 8)
}

// TotalBytes returns the full download size of one rendition.
func (v Video) TotalBytes(q Quality) int {
	var total int
	for i := 0; i < v.NumSegments(); i++ {
		total += v.SegmentSize(q, i)
	}
	return total
}

// QualityByName finds a rendition by name.
func (v Video) QualityByName(name string) (Quality, bool) {
	for _, q := range v.Qualities {
		if q.Name == name {
			return q, true
		}
	}
	return Quality{}, false
}

// Origin is an HTTP handler serving the video's master playlist, media
// playlists and segments with deterministic synthetic content:
//
//	/<video>/master.m3u8
//	/<video>/<quality>/playlist.m3u8
//	/<video>/<quality>/seg<i>.ts
//
// Segments declare "Accept-Ranges: bytes", and a segment GET with a
// single-range Range header ("bytes=a-b" or "bytes=a-") gets that slice
// of the body as a 206.
type Origin struct {
	video Video
	tape  func() []byte // newTape, once, on the first segment request
}

// NewOrigin creates the origin handler. It panics when the video has no
// qualities or a non-positive duration (a configuration error).
func NewOrigin(v Video) *Origin {
	if len(v.Qualities) == 0 || v.Duration <= 0 || v.SegmentDur <= 0 {
		panic(fmt.Sprintf("hls: invalid video %+v", v))
	}
	o := &Origin{video: v}
	o.tape = sync.OnceValue(o.newTape)
	return o
}

// Video returns the served asset description.
func (o *Origin) Video() Video { return o.video }

// MasterPlaylist builds the asset's master playlist.
func (o *Origin) MasterPlaylist() *MasterPlaylist {
	m := &MasterPlaylist{}
	for _, q := range o.video.Qualities {
		m.Variants = append(m.Variants, Variant{
			URI:       q.Name + "/playlist.m3u8",
			Bandwidth: q.Bitrate,
		})
	}
	return m
}

// MediaPlaylist builds the media playlist for one rendition.
func (o *Origin) MediaPlaylist(q Quality) *MediaPlaylist {
	v := o.video
	m := &MediaPlaylist{TargetDuration: v.SegmentDur, Ended: true}
	n := v.NumSegments()
	for i := 0; i < n; i++ {
		dur := v.SegmentDur
		if i == n-1 {
			if rem := v.Duration - float64(n-1)*v.SegmentDur; rem > 0 {
				dur = rem
			}
		}
		m.Segments = append(m.Segments, Segment{
			URI:      fmt.Sprintf("seg%04d.ts", i),
			Duration: dur,
		})
	}
	return m
}

// ServeHTTP implements http.Handler.
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	if len(parts) < 2 || parts[0] != o.video.Name {
		http.NotFound(w, r)
		return
	}
	switch {
	case len(parts) == 2 && parts[1] == "master.m3u8":
		w.Header().Set("Content-Type", "application/vnd.apple.mpegurl")
		_ = o.MasterPlaylist().Encode(w) // client disconnect; nothing to do
	case len(parts) == 3 && parts[2] == "playlist.m3u8":
		q, ok := o.video.QualityByName(parts[1])
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/vnd.apple.mpegurl")
		_ = o.MediaPlaylist(q).Encode(w) // client disconnect; nothing to do
	case len(parts) == 3 && strings.HasPrefix(parts[2], "seg") && path.Ext(parts[2]) == ".ts":
		q, ok := o.video.QualityByName(parts[1])
		if !ok {
			http.NotFound(w, r)
			return
		}
		idxStr := strings.TrimSuffix(strings.TrimPrefix(parts[2], "seg"), ".ts")
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx < 0 || idx >= o.video.NumSegments() {
			http.NotFound(w, r)
			return
		}
		size := o.video.SegmentSize(q, idx)
		first, last, status := byteRange(r.Header.Get("Range"), size)
		h := w.Header()
		h.Set("Content-Type", "video/mp2t")
		h.Set("Cache-Control", "no-store") // the paper disables caching
		h.Set("Accept-Ranges", "bytes")
		switch status {
		case http.StatusRequestedRangeNotSatisfiable:
			h.Set("Content-Range", "bytes */"+strconv.Itoa(size))
			http.Error(w, "range not satisfiable", status)
			return
		case http.StatusPartialContent:
			h.Set("Content-Range", "bytes "+strconv.Itoa(first)+"-"+strconv.Itoa(last)+"/"+strconv.Itoa(size))
		}
		h.Set("Content-Length", strconv.Itoa(last+1-first))
		w.WriteHeader(status)
		if r.Method == http.MethodHead {
			return
		}
		// One Write of a slice of the tape, ranged or not: no
		// http.ServeContent, whose copy loop allocates 32 KB a response.
		_, _ = w.Write(o.segmentBody(q, idx, size)[first : last+1]) // client disconnect; nothing to do
	default:
		http.NotFound(w, r)
	}
}

// byteRange reads a Range header against a body of size bytes: the
// bytes [first, last] to send and the status to send them with. A
// single "bytes=a-b" or "bytes=a-" range is a 206 of it (b clamped to
// the body), or a 416 when a is past the body; anything else — no
// header, several ranges, a suffix range, a malformed one — is ignored,
// as RFC 9110 allows, for a 200 of the whole body.
func byteRange(h string, size int) (first, last, status int) {
	whole := func() (int, int, int) { return 0, size - 1, http.StatusOK }
	spec, ok := strings.CutPrefix(h, "bytes=")
	if !ok {
		return whole()
	}
	a, b, ok := strings.Cut(spec, "-")
	first, err := strconv.Atoi(a)
	if !ok || err != nil || first < 0 || a[0] == '+' {
		return whole()
	}
	last = size - 1
	if b != "" {
		if last, err = strconv.Atoi(b); err != nil || last < first || b[0] == '+' {
			return whole()
		}
		last = min(last, size-1)
	}
	if first >= size {
		return 0, -1, http.StatusRequestedRangeNotSatisfiable
	}
	return first, last, http.StatusPartialContent
}

// tapeSlack is the range of a segment's offset into the tape: a power of
// two, so that an odd stride visits every offset before repeating one.
const tapeSlack = 1 << 20

// newTape generates the bytes every segment body is a window of: the
// largest segment plus tapeSlack (≈ 2 MB for BipBop) of xorshift64*
// output, incompressible so that proxies cannot shrink a body (the paper
// avoids compressing middleboxes by using random payloads).
func (o *Origin) newTape() []byte {
	largest := 0
	for _, q := range o.video.Qualities {
		largest = max(largest, o.video.SegmentSize(q, 0))
	}
	tape := make([]byte, (largest+tapeSlack+7)&^7)
	x := uint64(hashString(o.video.Name))*2862933555777941757 + 3037000493
	for i := 0; i < len(tape); i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(tape[i:], x*2685821657736338717)
	}
	return tape
}

// segmentBody returns the size bytes of segment idx of rendition q. It is
// fixture code: a body is a window of the tape, so that serving one costs
// a single Write next to the proxy path under test. The offset derives
// from (q, idx): a segment is the same bytes every time, and no two of a
// rendition start at the same place (the stride is odd). A response is
// incompressible in itself, but windows overlap: a compressor with more
// than a megabyte of window across responses could now find one segment
// in another — none exists here.
func (o *Origin) segmentBody(q Quality, idx, size int) []byte {
	off := (uint64(hashString(q.Name)) + uint64(idx)*2654435761) % tapeSlack
	return o.tape()[off:][:size]
}

func hashString(s string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= int64(s[i])
		h *= 1099511628211
	}
	return h
}
