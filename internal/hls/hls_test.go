package hls

import (
	"bytes"
	"compress/flate"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"threegol/internal/netem"
)

// oddVideo has two renditions whose three segments are size bytes each.
func oddVideo(size int) Video {
	return Video{Name: "odd", Duration: 3, SegmentDur: 1, Qualities: []Quality{{Name: "a", Bitrate: 8 * size}, {Name: "b", Bitrate: 8 * size}}}
}

// serveSegment asks a fresh origin — a fresh tape — for one segment.
func serveSegment(t *testing.T, v Video, quality string, idx int) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	path := fmt.Sprintf("/%s/%s/seg%04d.ts", v.Name, quality, idx)
	NewOrigin(v).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d", path, rec.Code)
	}
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
		t.Errorf("GET %s: Content-Length %s on a body of %s bytes", path, got, want)
	}
	return rec.Body.Bytes()
}

// A segment body is a window of the origin's tape, which is generated 8
// bytes per step; sizes that end inside a word, below and above the old
// generator's 16 KB chunk, must still come out exact, deterministic per
// (rendition, index), distinct between segments and incompressible.
func TestSyntheticBodyExactAtOddSizes(t *testing.T) {
	for _, size := range []int{0, 1, 7, 8, 9, 12_503, 16 << 10, 16<<10 + 3, 3*(16<<10) + 4093} {
		v := oddVideo(size)
		a, b := serveSegment(t, v, "a", 1), serveSegment(t, v, "a", 1)
		if len(a) != size {
			t.Errorf("size %d: wrote %d bytes", size, len(a))
		}
		if !bytes.Equal(a, b) {
			t.Errorf("size %d: one segment served by two origins differs", size)
		}
		if size < 8 {
			continue // too short to tell apart reliably
		}
		if bytes.Equal(a, serveSegment(t, v, "a", 2)) {
			t.Errorf("size %d: segments 1 and 2 have the same body", size)
		}
		if bytes.Equal(a, serveSegment(t, v, "b", 1)) {
			t.Errorf("size %d: renditions a and b serve the same segment 1", size)
		}
	}
	raw := serveSegment(t, oddVideo(100_003), "a", 0)
	var packed bytes.Buffer
	zw, err := flate.NewWriter(&packed, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if packed.Len() < len(raw)*99/100 {
		t.Errorf("body deflates from %d to %d bytes: a middlebox could shrink it", len(raw), packed.Len())
	}
}

// Every segment of the paper's video is its own bytes, and the largest
// one fits the tape from the furthest offset.
func TestOriginTapeWindows(t *testing.T) {
	v := BipBop()
	o := NewOrigin(v)
	seen := map[[sha256.Size]byte]string{}
	for _, q := range v.Qualities {
		for i := 0; i < v.NumSegments(); i++ {
			body := o.segmentBody(q, i, v.SegmentSize(q, i))
			if len(body) != v.SegmentSize(q, i) {
				t.Fatalf("%s seg %d: %d bytes, want %d", q.Name, i, len(body), v.SegmentSize(q, i))
			}
			name := fmt.Sprintf("%s/%d", q.Name, i)
			sum := sha256.Sum256(body)
			if prev, dup := seen[sum]; dup {
				t.Errorf("%s and %s are the same bytes", prev, name)
			}
			seen[sum] = name
		}
	}
	top := v.Qualities[len(v.Qualities)-1]
	if want := v.SegmentSize(top, 0) + tapeSlack; len(o.tape()) < want {
		t.Errorf("tape of %d bytes cannot hold the largest segment at the last offset (%d)", len(o.tape()), want)
	}
}

func TestVideoGeometry(t *testing.T) {
	v := BipBop()
	if got := v.NumSegments(); got != 20 {
		t.Errorf("NumSegments = %d, want 20 (200s / 10s)", got)
	}
	q1, ok := v.QualityByName("q1")
	if !ok {
		t.Fatal("q1 missing")
	}
	if got := v.SegmentSize(q1, 0); got != 200_000*10/8 {
		t.Errorf("segment size = %d, want %d", got, 200_000*10/8)
	}
	if got := v.TotalBytes(q1); got != 200_000*200/8 {
		t.Errorf("total bytes = %d, want %d", got, 200_000*200/8)
	}
}

func TestVideoPartialLastSegment(t *testing.T) {
	v := Video{Name: "v", Duration: 25, SegmentDur: 10, Qualities: BipBopQualities}
	if got := v.NumSegments(); got != 3 {
		t.Fatalf("NumSegments = %d, want 3", got)
	}
	q := v.Qualities[0]
	if got, want := v.SegmentSize(q, 2), int(float64(q.Bitrate)*5/8); got != want {
		t.Errorf("last segment size = %d, want %d (5s)", got, want)
	}
	sum := v.SegmentSize(q, 0) + v.SegmentSize(q, 1) + v.SegmentSize(q, 2)
	if got := v.TotalBytes(q); got != sum {
		t.Errorf("TotalBytes = %d, want %d", got, sum)
	}
}

func TestMasterPlaylistRoundTrip(t *testing.T) {
	o := NewOrigin(BipBop())
	text := o.MasterPlaylist().String()
	parsed, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, text)
	}
	if parsed.Kind != KindMaster {
		t.Fatalf("kind = %v, want master", parsed.Kind)
	}
	if got := len(parsed.Master.Variants); got != 4 {
		t.Fatalf("variants = %d, want 4", got)
	}
	if parsed.Master.Variants[0].Bandwidth != 200_000 {
		t.Errorf("q1 bandwidth = %d", parsed.Master.Variants[0].Bandwidth)
	}
	sorted := parsed.Master.ByBandwidth()
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Bandwidth < sorted[i-1].Bandwidth {
			t.Error("ByBandwidth not sorted")
		}
	}
}

func TestMediaPlaylistRoundTrip(t *testing.T) {
	o := NewOrigin(BipBop())
	q, _ := o.Video().QualityByName("q2")
	text := o.MediaPlaylist(q).String()
	parsed, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, text)
	}
	if parsed.Kind != KindMedia {
		t.Fatalf("kind = %v, want media", parsed.Kind)
	}
	m := parsed.Media
	if len(m.Segments) != 20 {
		t.Fatalf("segments = %d, want 20", len(m.Segments))
	}
	if !m.Ended {
		t.Error("VoD playlist should carry EXT-X-ENDLIST")
	}
	if m.TotalDuration() != 200 {
		t.Errorf("total duration = %v, want 200", m.TotalDuration())
	}
	if m.TargetDuration != 10 {
		t.Errorf("target duration = %v, want 10", m.TargetDuration)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not a playlist",
		"#EXTM3U\n#EXTINF:notanumber,\nseg.ts\n",
		"#EXTM3U\nseg.ts\n", // URI without preceding tag
		"#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=1\nv.m3u8\n#EXTINF:1,\ns.ts\n", // mixed
		"#EXTM3U\n#EXT-X-TARGETDURATION:10\n",                                // neither
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse accepted %q", c)
		}
	}
}

// TestParseRejectsBadDurations holds both duration tags to one range: a
// NaN, infinite, negative or over-a-day value is a bad-duration error,
// like text that is not a number. The VoD proxy sizes a prefetched
// segment from its duration, so any of them would reach the scheduler.
func TestParseRejectsBadDurations(t *testing.T) {
	cases := []struct{ text, want string }{
		{"#EXTM3U\n#EXTINF:+Inf,\nseg.ts\n", "bad EXTINF duration"},
		{"#EXTM3U\n#EXTINF:1e300,\nseg.ts\n", "bad EXTINF duration"},
		{"#EXTM3U\n#EXTINF:NaN,\nseg.ts\n", "bad EXTINF duration"},
		{"#EXTM3U\n#EXTINF:-10,\nseg.ts\n", "bad EXTINF duration"},
		{"#EXTM3U\n#EXTINF:86400.5,\nseg.ts\n", "bad EXTINF duration"},
		{"#EXTM3U\n#EXT-X-TARGETDURATION:NaN\n#EXTINF:10,\nseg.ts\n", "bad target duration"},
		{"#EXTM3U\n#EXT-X-TARGETDURATION:-Inf\n#EXTINF:10,\nseg.ts\n", "bad target duration"},
		{"#EXTM3U\n#EXT-X-TARGETDURATION:90000\n#EXTINF:10,\nseg.ts\n", "bad target duration"},
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.text))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want a %q error", c.text, err, c.want)
		}
	}
	// A day of video is the bound, not past it.
	if _, err := Parse(strings.NewReader("#EXTM3U\n#EXT-X-TARGETDURATION:86400\n#EXTINF:86400,\nseg.ts\n")); err != nil {
		t.Errorf("Parse rejected a one-day segment: %v", err)
	}
}

func TestParseAttrsQuotedValues(t *testing.T) {
	attrs := parseAttrs(`BANDWIDTH=200000,CODECS="avc1.42e00a,mp4a.40.2",RESOLUTION=416x234`)
	if attrs["BANDWIDTH"] != "200000" {
		t.Errorf("BANDWIDTH = %q", attrs["BANDWIDTH"])
	}
	if attrs["CODECS"] != "avc1.42e00a,mp4a.40.2" {
		t.Errorf("CODECS = %q (quoted comma mishandled)", attrs["CODECS"])
	}
	if attrs["RESOLUTION"] != "416x234" {
		t.Errorf("RESOLUTION = %q", attrs["RESOLUTION"])
	}
}

func TestIsPlaylistURI(t *testing.T) {
	tests := []struct {
		uri  string
		want bool
	}{
		{"http://x/video/master.m3u8", true},
		{"/video/q1/playlist.M3U8?token=1", true},
		{"/video/q1/seg0001.ts", false},
		{"playlist.m3u8#frag", true},
		{"m3u8", false},
	}
	for _, tt := range tests {
		if got := IsPlaylistURI(tt.uri); got != tt.want {
			t.Errorf("IsPlaylistURI(%q) = %v, want %v", tt.uri, got, tt.want)
		}
	}
}

func TestOriginServesEverything(t *testing.T) {
	o := NewOrigin(BipBop())
	srv := httptest.NewServer(o)
	defer srv.Close()

	get := func(p string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	resp, body := get("/bipbop/master.m3u8")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "EXT-X-STREAM-INF") {
		t.Fatalf("master playlist: %s %q", resp.Status, body)
	}
	resp, body = get("/bipbop/q3/playlist.m3u8")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "#EXTINF:10") {
		t.Fatalf("media playlist: %s", resp.Status)
	}
	resp, body = get("/bipbop/q3/seg0000.ts")
	if resp.StatusCode != 200 {
		t.Fatalf("segment: %s", resp.Status)
	}
	if want := 484_000 * 10 / 8; len(body) != want {
		t.Errorf("segment size = %d, want %d", len(body), want)
	}

	// Determinism: re-fetching yields identical bytes.
	_, body2 := get("/bipbop/q3/seg0000.ts")
	if string(body) != string(body2) {
		t.Error("segment content not deterministic")
	}

	for _, p := range []string{
		"/bipbop/q9/playlist.m3u8",
		"/bipbop/q1/seg9999.ts",
		"/bipbop/q1/segXX.ts",
		"/other/master.m3u8",
		"/bipbop",
	} {
		if resp, _ := get(p); resp.StatusCode != 404 {
			t.Errorf("GET %s = %s, want 404", p, resp.Status)
		}
	}

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/bipbop/master.m3u8", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %s, want 405", resp2.Status)
	}
}

func TestPlayerPlaysThroughOrigin(t *testing.T) {
	o := NewOrigin(BipBop())
	srv := httptest.NewServer(o)
	defer srv.Close()

	p := &Player{Client: srv.Client(), PrebufferFrac: 0.2}
	res, err := p.Play(context.Background(), srv.URL+"/bipbop/master.m3u8", "q2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != 20 {
		t.Errorf("segments = %d, want 20", res.Segments)
	}
	if want := int64(311_000 * 200 / 8); res.Bytes != want {
		t.Errorf("bytes = %d, want %d", res.Bytes, want)
	}
	if res.PrebufferTime <= 0 || res.PrebufferTime > res.TotalTime {
		t.Errorf("prebuffer %v should be within (0, total=%v]", res.PrebufferTime, res.TotalTime)
	}
}

// offerBody is a response body of left bytes that records the len(p) of
// every Read it is offered and, like a socket, fills less than that.
type offerBody struct {
	left    int
	offered []int
}

func (b *offerBody) Read(p []byte) (int, error) {
	b.offered = append(b.offered, len(p))
	if b.left == 0 {
		return 0, io.EOF
	}
	n := min(len(p), b.left, 10_000)
	b.left -= n
	return n, nil
}

func (b *offerBody) Close() error { return nil }

type roundTrip func(*http.Request) (*http.Response, error)

func (f roundTrip) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// The player drops a segment through reads as large as a shaped
// connection can fill, not io.Discard's 8 KB, and counts every byte.
func TestPlayerOffersItsSourceTheReadCap(t *testing.T) {
	const size = 922_500 // a BipBop q4 segment
	body := &offerBody{left: size}
	p := &Player{Client: &http.Client{Transport: roundTrip(func(r *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Body: body, Request: r}, nil
	})}}
	n, err := p.fetchSegment(context.Background(), "http://origin/bipbop/q4/seg0000.ts")
	if err != nil || n != size {
		t.Fatalf("fetchSegment = %d, %v; want %d", n, err, size)
	}
	for _, offered := range body.offered {
		if offered != netem.MaxRead {
			t.Fatalf("the body was offered a %d-byte buffer, want netem.MaxRead = %d", offered, netem.MaxRead)
		}
	}
}

func TestPlayerDefaultsToLowestQuality(t *testing.T) {
	o := NewOrigin(BipBop())
	srv := httptest.NewServer(o)
	defer srv.Close()
	p := &Player{Client: srv.Client(), PrebufferFrac: 1}
	res, err := p.Play(context.Background(), srv.URL+"/bipbop/master.m3u8", "")
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(200_000 * 200 / 8); res.Bytes != want {
		t.Errorf("bytes = %d, want lowest variant %d", res.Bytes, want)
	}
}

func TestPlayerErrors(t *testing.T) {
	o := NewOrigin(BipBop())
	srv := httptest.NewServer(o)
	defer srv.Close()
	p := &Player{Client: srv.Client(), PrebufferFrac: 0.2}
	if _, err := p.Play(context.Background(), srv.URL+"/bipbop/master.m3u8", "q99"); err == nil {
		t.Error("unknown quality accepted")
	}
	if _, err := p.Play(context.Background(), srv.URL+"/nope/master.m3u8", ""); err == nil {
		t.Error("404 master accepted")
	}
	// Media playlist passed where master expected.
	if _, err := p.Play(context.Background(), srv.URL+"/bipbop/q1/playlist.m3u8", ""); err == nil {
		t.Error("media playlist accepted as master")
	}
	bad := &Player{PrebufferFrac: 0.2}
	if _, err := bad.Play(context.Background(), srv.URL, ""); err == nil {
		t.Error("nil client accepted")
	}
}

func TestContainsSegmentName(t *testing.T) {
	if !containsSegmentName("q1/playlist.m3u8", "q1") {
		t.Error("q1 should match")
	}
	if containsSegmentName("q10/playlist.m3u8", "q1") {
		t.Error("q1 must not match q10")
	}
}

// Property: any video geometry round-trips through playlist encode/parse
// with identical segment count and total duration.
func TestPlaylistRoundTripProperty(t *testing.T) {
	f := func(durRaw, segRaw uint16) bool {
		dur := float64(durRaw%3600) + 1
		seg := float64(segRaw%30) + 1
		v := Video{Name: "v", Duration: dur, SegmentDur: seg, Qualities: BipBopQualities[:1]}
		o := NewOrigin(v)
		text := o.MediaPlaylist(v.Qualities[0]).String()
		parsed, err := Parse(strings.NewReader(text))
		if err != nil {
			return false
		}
		if len(parsed.Media.Segments) != v.NumSegments() {
			return false
		}
		diff := parsed.Media.TotalDuration() - dur
		return diff < 0.01 && diff > -0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// FuzzParse holds Parse to its contract on arbitrary bytes: it never
// panics, every duration it accepts is finite, ≥ 0 and at most
// maxDuration, and a playlist it accepts with at least one variant or
// segment encodes to a fixed point after one round:
// Encode(Parse(Encode(p))) == Encode(p). The seed corpus
// (testdata/fuzz/FuzzParse) has a master and a media playlist as the
// origin writes them, CRLF line ends, non-finite, negative, absurd and
// boundary durations, and garbage.
func FuzzParse(f *testing.F) {
	encode := func(p *Parsed) string {
		if p.Kind == KindMaster {
			return p.Master.String()
		}
		return p.Media.String()
	}
	inRange := func(d float64) bool { return d >= 0 && d <= maxDuration } // NaN fails both
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if p.Kind == KindMaster {
			if len(p.Master.Variants) == 0 {
				return
			}
		} else {
			if !inRange(p.Media.TargetDuration) {
				t.Fatalf("accepted target duration %v from %q", p.Media.TargetDuration, data)
			}
			for _, seg := range p.Media.Segments {
				if !inRange(seg.Duration) {
					t.Fatalf("accepted segment duration %v from %q", seg.Duration, data)
				}
			}
			if len(p.Media.Segments) == 0 {
				return
			}
		}
		once := encode(p)
		p2, err := Parse(strings.NewReader(once))
		if err != nil {
			t.Fatalf("Parse rejects its own encoding %q of %q: %v", once, data, err)
		}
		if twice := encode(p2); twice != once {
			t.Fatalf("encoding is not a fixed point after one round:\n%q\nthen\n%q", once, twice)
		}
	})
}

func TestNewOriginPanicsOnBadVideo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewOrigin with no qualities did not panic")
		}
	}()
	NewOrigin(Video{Name: "x", Duration: 10, SegmentDur: 10})
}

// A single Range gets that slice of the segment as a 206 with its
// Content-Range; a range past the body is a 416; anything else the
// origin ignores, as RFC 9110 lets it, for the whole body.
func TestOriginServesByteRanges(t *testing.T) {
	v := oddVideo(1000)
	whole := serveSegment(t, v, "a", 1)
	o := NewOrigin(v)
	for _, c := range []struct {
		header      string
		status      int
		first, last int
	}{
		{"bytes=0-99", http.StatusPartialContent, 0, 99},
		{"bytes=900-", http.StatusPartialContent, 900, 999},
		{"bytes=950-5000", http.StatusPartialContent, 950, 999},
		{"bytes=999-999", http.StatusPartialContent, 999, 999},
		{"bytes=1000-", http.StatusRequestedRangeNotSatisfiable, 0, -1},
		{"bytes=-100", http.StatusOK, 0, 999},
		{"bytes=0-1,5-6", http.StatusOK, 0, 999},
		{"bytes=+1-5", http.StatusOK, 0, 999},
		{"bytes=9-5", http.StatusOK, 0, 999},
		{"items=0-5", http.StatusOK, 0, 999},
	} {
		req := httptest.NewRequest(http.MethodGet, "/odd/a/seg0001.ts", nil)
		req.Header.Set("Range", c.header)
		rec := httptest.NewRecorder()
		o.ServeHTTP(rec, req)
		if rec.Code != c.status {
			t.Errorf("Range %q: status %d, want %d", c.header, rec.Code, c.status)
			continue
		}
		if got := rec.Header().Get("Accept-Ranges"); got != "bytes" {
			t.Errorf("Range %q: Accept-Ranges %q", c.header, got)
		}
		switch c.status {
		case http.StatusRequestedRangeNotSatisfiable:
			if got := rec.Header().Get("Content-Range"); got != "bytes */1000" {
				t.Errorf("Range %q: Content-Range %q", c.header, got)
			}
			continue
		case http.StatusPartialContent:
			if got, want := rec.Header().Get("Content-Range"), fmt.Sprintf("bytes %d-%d/1000", c.first, c.last); got != want {
				t.Errorf("Range %q: Content-Range %q, want %q", c.header, got, want)
			}
		}
		if !bytes.Equal(rec.Body.Bytes(), whole[c.first:c.last+1]) {
			t.Errorf("Range %q: %d bytes, not the body's [%d, %d]", c.header, rec.Body.Len(), c.first, c.last)
		}
		if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
			t.Errorf("Range %q: Content-Length %s on %s bytes", c.header, got, want)
		}
	}
}
