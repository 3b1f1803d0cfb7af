package upload

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"threegol/internal/obs/eventlog"
	"threegol/internal/scheduler"
	"threegol/internal/transfer"
)

func postFile(t *testing.T, url, name string, body []byte) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	part, err := mw.CreateFormFile("file", name)
	if err != nil {
		t.Fatal(err)
	}
	part.Write(body)
	mw.Close()
	resp, err := http.Post(url, mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestUploadStoresAndDigests(t *testing.T) {
	s := &Server{KeepPayloads: true}
	srv := httptest.NewServer(s)
	defer srv.Close()

	content := bytes.Repeat([]byte("img"), 1000)
	resp := postFile(t, srv.URL, "a.jpg", content)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %s", resp.Status)
	}
	files := s.Files()
	if len(files) != 1 || files[0].Name != "a.jpg" || files[0].Size != 3000 {
		t.Fatalf("files = %+v", files)
	}
	sum := sha256.Sum256(content)
	if files[0].SHA256 != hex.EncodeToString(sum[:]) {
		t.Error("digest mismatch")
	}
	got, ok := s.Payload("a.jpg")
	if !ok || !bytes.Equal(got, content) {
		t.Error("payload not retained intact")
	}
}

func TestUploadDeduplicatesReplays(t *testing.T) {
	s := &Server{}
	srv := httptest.NewServer(s)
	defer srv.Close()
	for i := 0; i < 3; i++ {
		postFile(t, srv.URL, "dup.jpg", []byte("x"))
	}
	st := s.Stats()
	if st.Files != 1 || st.Duplicates != 2 || st.Requests != 3 {
		t.Errorf("stats = %+v, want 1 file, 2 duplicates, 3 requests", st)
	}
}

func TestUploadRejectsBadRequests(t *testing.T) {
	s := &Server{}
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Post(srv.URL, "text/plain", strings.NewReader("not multipart"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-multipart = %s, want 400", resp.Status)
	}

	// Multipart with no file parts.
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.WriteField("note", "hello")
	mw.Close()
	resp, err = http.Post(srv.URL, mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no-file multipart = %s, want 400", resp.Status)
	}

	resp, err = http.Get(srv.URL + "/anything")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET = %s, want 405", resp.Status)
	}
}

func TestUploadMaxBytes(t *testing.T) {
	s := &Server{MaxBytes: 1024}
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp := postFile(t, srv.URL, "big.jpg", bytes.Repeat([]byte("z"), 10_000))
	if resp.StatusCode == http.StatusCreated {
		t.Error("oversized upload accepted")
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := &Server{}
	srv := httptest.NewServer(s)
	defer srv.Close()
	postFile(t, srv.URL, "a.jpg", []byte("abc"))
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Files != 1 || st.TotalBytes != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUploadViaSchedulerPaths(t *testing.T) {
	// The real client pipeline: transfer.UploadPath → multipart POST →
	// this server, over two paths with the greedy scheduler.
	s := &Server{KeepPayloads: true}
	srv := httptest.NewServer(s)
	defer srv.Close()

	content := map[string][]byte{
		"p0.jpg": bytes.Repeat([]byte("a"), 2000),
		"p1.jpg": bytes.Repeat([]byte("b"), 3000),
		"p2.jpg": bytes.Repeat([]byte("c"), 1000),
	}
	source := func(item scheduler.Item) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(content[item.Name])), nil
	}
	mk := func(name string) scheduler.Path {
		return &transfer.UploadPath{
			PathName: name, Client: srv.Client(), TargetURL: srv.URL, Source: source,
		}
	}
	items := []scheduler.Item{
		{ID: 0, Name: "p0.jpg", Size: 2000},
		{ID: 1, Name: "p1.jpg", Size: 3000},
		{ID: 2, Name: "p2.jpg", Size: 1000},
	}
	if _, err := scheduler.Run(context.Background(), scheduler.Greedy, items,
		[]scheduler.Path{mk("adsl"), mk("ph1")}, scheduler.Options{}); err != nil {
		t.Fatal(err)
	}
	for name, want := range content {
		got, ok := s.Payload(name)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("%s corrupted or missing", name)
		}
	}
	if st := s.Stats(); st.Files != 3 {
		t.Errorf("files = %d, want 3", st.Files)
	}
}

// The uploader declares each photo's length, so content that ends short
// of its item's Size, or runs past it, fails the transfer, and the
// server stores nothing: a short file must not arrive as a whole one.
func TestUploadPathDeclaredLength(t *testing.T) {
	s := &Server{}
	srv := httptest.NewServer(s)
	defer srv.Close()
	const size = 300_000
	for _, tc := range []struct {
		name    string
		content int
	}{
		{"short", size - 1000},
		{"short by one", size - 1},
		{"empty", 0},
		{"long", size + 1000},
		{"long by one", size + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &transfer.UploadPath{
				PathName: "ph1", Client: srv.Client(), TargetURL: srv.URL,
				Source: func(scheduler.Item) (io.ReadCloser, error) {
					return io.NopCloser(bytes.NewReader(bytes.Repeat([]byte("p"), tc.content))), nil
				},
			}
			_, err := p.Transfer(context.Background(), scheduler.Item{Name: "IMG_0001.jpg", Size: size})
			if err == nil {
				t.Fatalf("%d bytes of content for a %d-byte item uploaded without error", tc.content, size)
			}
			if msg := err.Error(); !strings.Contains(msg, "IMG_0001.jpg") || !strings.Contains(msg, "ph1") {
				t.Errorf("error %q does not name both the item and the path", msg)
			}
			t.Log(err)
			if files := s.Files(); len(files) != 0 {
				t.Errorf("server stored %+v", files)
			}
		})
	}
	// The exact length still goes through.
	p := &transfer.UploadPath{
		PathName: "ph1", Client: srv.Client(), TargetURL: srv.URL,
		Source: func(scheduler.Item) (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(make([]byte, size))), nil
		},
	}
	if n, err := p.Transfer(context.Background(), scheduler.Item{Name: "IMG_0002.jpg", Size: size}); err != nil || n != size {
		t.Fatalf("exact content: %d, %v", n, err)
	}
	if files := s.Files(); len(files) != 1 || files[0].Size != size {
		t.Errorf("server stored %+v, want IMG_0002.jpg of %d bytes", files, size)
	}
}

// A trace ID from outside is recorded only if it is one: a 200 000-byte
// X-3gol-Trace starts a fresh trace instead of being stored on the span.
func TestUploadIgnoresForeignTrace(t *testing.T) {
	events := eventlog.New(0, 1, nil)
	s := &Server{Events: events}
	srv := httptest.NewServer(s)
	defer srv.Close()
	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	part, _ := mw.CreateFormFile("file", "a.jpg")
	part.Write([]byte("abc"))
	mw.Close()
	huge := strings.Repeat("7", 200_000)
	req, err := http.NewRequest(http.MethodPost, srv.URL, &form)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	req.Header.Set(eventlog.HeaderTrace, huge+"/0123456789abcdef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %s: tracing failed the request", resp.Status)
	}
	var spans int
	for _, ev := range events.Events() {
		if ev.Name != "upload.request" {
			continue
		}
		spans++
		if len(ev.Trace) > 64 || ev.Parent != "" {
			t.Errorf("%s event recorded a %d-byte trace with parent %q", ev.Kind, len(ev.Trace), ev.Parent)
		}
	}
	if spans == 0 {
		t.Error("no upload.request span recorded")
	}
}
