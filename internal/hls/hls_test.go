package hls

import (
	"bytes"
	"compress/flate"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"
)

// The body generator emits 8 bytes per step; sizes that end inside a
// word, below and above one chunk, must still come out exact,
// deterministic and incompressible.
func TestSyntheticBodyExactAtOddSizes(t *testing.T) {
	body := func(size int, seed int64) []byte {
		rec := httptest.NewRecorder()
		writeSyntheticBody(rec, size, seed)
		return rec.Body.Bytes()
	}
	for _, size := range []int{0, 1, 7, 8, 9, 12_503, bodyChunk, bodyChunk + 3, 3*bodyChunk + 4093} {
		a, b := body(size, 5), body(size, 5)
		if len(a) != size {
			t.Errorf("size %d: wrote %d bytes", size, len(a))
		}
		if !bytes.Equal(a, b) {
			t.Errorf("size %d: two bodies from one seed differ", size)
		}
		if size >= 8 && bytes.Equal(a, body(size, 6)) {
			t.Errorf("size %d: seeds 5 and 6 gave the same body", size)
		}
	}
	raw := body(100_003, 1)
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

func TestNewOriginPanicsOnBadVideo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewOrigin with no qualities did not panic")
		}
	}()
	NewOrigin(Video{Name: "x", Duration: 10, SegmentDur: 10})
}
