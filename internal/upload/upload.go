// Package upload implements the photo-sharing service endpoint of the
// paper's uplink application (§4.1): an HTTP server accepting
// multipart/form-data POSTs the way Facebook/Flickr/Picasa native
// clients send them. It keeps each file's size and SHA-256 digest, not
// its bytes, deduplicates replays by filename (the greedy scheduler's
// endgame can deliver an item twice), assembles a photo sent in pieces
// (pieces.go), and exposes counters the experiments assert on.
package upload

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"threegol/internal/clock"
	"threegol/internal/freelist"
	"threegol/internal/netem"
	"threegol/internal/obs/eventlog"
	"threegol/internal/proxy"
)

// File is one stored upload.
type File struct {
	Name   string
	Size   int64
	SHA256 string
	// Copies counts how many times the file arrived (replay deliveries
	// from scheduler duplication land here, not as separate files, as do
	// pieces of it that arrive again after their bytes were in).
	Copies int
}

// Server is the upload endpoint. The zero value is ready to use; serve
// it with net/http. POST / (or any path) with one or more multipart file
// parts — a part with a "Content-Range: bytes a-b/size" header is a piece
// of its file, which is stored once all of its pieces are in, and the
// server says "Accept-Ranges: bytes" when it answers 201; GET /stats
// returns a JSON summary.
type Server struct {
	// MaxBytes caps a single request body, and the photos being
	// assembled from pieces between them; 0 means 256 MB.
	MaxBytes int64
	// Metrics receives request/file/byte instrumentation (see
	// NewMetrics); the zero value records nothing.
	Metrics Metrics
	// Events, when non-nil, records a flight-recorder span per upload
	// request, parented to the sender's X-3gol-Trace header — the
	// server-side end of a traced photo upload.
	Events *eventlog.Log

	// clk ages the assemblies of photos sent in pieces, so that one its
	// sender abandoned gives its room back; nil is the system clock, and
	// tests set a fake.
	clk clock.Clock

	mu         sync.Mutex
	files      map[string]*File
	assembling map[string]*assembly // photos arriving in pieces (pieces.go)
	// assemblyBytes is Σ size of assembling.
	assemblyBytes int64
	requests      int
	bytes         int64
}

func (s *Server) now() time.Time { return clock.Or(s.clk).Now() }

func (s *Server) maxBytes() int64 {
	if s.MaxBytes > 0 {
		return s.MaxBytes
	}
	return 256 << 20
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/stats":
		s.serveStats(w)
	case r.Method == http.MethodPost:
		s.serveUpload(w, r)
	default:
		http.Error(w, "POST multipart uploads here; GET /stats for counters",
			http.StatusMethodNotAllowed)
	}
}

func (s *Server) serveUpload(w http.ResponseWriter, r *http.Request) {
	tc, _ := eventlog.ExtractHTTP(r.Header)
	sp := s.Events.Begin(tc, "upload.request")
	br := bodyReader(http.MaxBytesReader(w, r.Body, s.maxBytes()))
	defer releaseReader(br)
	r.Body = io.NopCloser(br)
	mr, err := r.MultipartReader()
	if err != nil {
		sp.End("outcome", "error", "error", err.Error())
		http.Error(w, fmt.Sprintf("expected multipart/form-data: %v", err), http.StatusBadRequest)
		return
	}
	var stored []string
	var total int64
	dups := 0
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			sp.End("outcome", "error", "error", err.Error())
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		name := part.FileName()
		if name == "" {
			io.Copy(io.Discard, part) // non-file form field
			continue
		}
		if cr := part.Header.Get("Content-Range"); cr != "" {
			off, end, size, ok := parseWindow(cr)
			if !ok {
				err = fmt.Errorf("%s: Content-Range %q is not a window of the file", name, cr)
			} else {
				err = s.piece(r.Context(), name, off, end, size, part)
			}
			if err != nil {
				sp.End("outcome", "error", "error", err.Error())
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			total += end - off
			stored = append(stored, name)
			continue
		}
		h := sha256.New()
		n, err := proxy.Relay(h, part)
		if err != nil {
			sp.End("outcome", "error", "error", err.Error())
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if s.record(name, n, hex.EncodeToString(h.Sum(nil))) {
			dups++
		}
		total += n
		stored = append(stored, name)
	}
	if len(stored) == 0 {
		sp.End("outcome", "error", "error", "no file parts")
		http.Error(w, "no file parts in request", http.StatusBadRequest)
		return
	}
	s.Metrics.Requests.Inc()
	sp.End("outcome", "ok", "files", eventlog.Int(int64(len(stored))),
		"bytes", eventlog.Int(total), "duplicates", eventlog.Int(int64(dups)))
	w.Header().Set("Accept-Ranges", "bytes")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(map[string]any{"stored": stored}) // client disconnect; nothing to do
}

// readers is the free list of the readers request bodies are read
// through. mime/multipart refills a 4 KB buffer from what it is given:
// given the body, that is a socket read per 4 KB; given one of these, a
// read per MaxRead, what a shaped hop carries in a step at most. The
// list keeps eight (2 MB), more than the requests one home's paths and
// their endgame replicas have open at once.
var readers = freelist.List[*bufio.Reader]{Name: "upload readers", Keep: 8 * netem.MaxRead}

func bodyReader(body io.Reader) *bufio.Reader {
	if br, ok := readers.Get(netem.MaxRead); ok {
		br.Reset(body)
		return br
	}
	return bufio.NewReaderSize(body, netem.MaxRead)
}

func releaseReader(br *bufio.Reader) {
	br.Reset(nil) // keep no finished request's body reachable
	readers.Put(br, br.Size())
}

// record stores one file that arrived whole, reporting whether it was a
// duplicate replay.
func (s *Server) record(name string, size int64, digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.received(size)
	return s.keep(name, size, digest)
}

// received counts a file part's payload, whole file or piece. The caller
// holds s.mu.
func (s *Server) received(n int64) {
	s.requests++
	s.bytes += n
	if n > 0 {
		s.Metrics.Bytes.Add(n)
	}
}

// keep stores a file that is whole, or counts a replay of one already
// stored, reporting which. The caller holds s.mu.
func (s *Server) keep(name string, size int64, digest string) bool {
	if s.files == nil {
		s.files = make(map[string]*File)
	}
	if f, ok := s.files[name]; ok {
		f.Copies++
		s.Metrics.DuplicateFiles.Inc()
		return true
	}
	s.Metrics.Files.Inc()
	s.files[name] = &File{Name: name, Size: size, SHA256: digest, Copies: 1}
	if a := s.assembling[name]; a != nil && !a.busy() {
		s.drop(name, a) // its pieces can only be replays now
	}
	return false
}

// Stats is the JSON shape of GET /stats.
type Stats struct {
	Files      int   `json:"files"`
	Requests   int   `json:"requests"`
	TotalBytes int64 `json:"total_bytes"`
	Duplicates int   `json:"duplicates"`
}

func (s *Server) serveStats(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.Stats()) // client disconnect; nothing to do
}

// Stats returns current counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Files: len(s.files), Requests: s.requests, TotalBytes: s.bytes}
	for _, f := range s.files {
		st.Duplicates += f.Copies - 1
	}
	return st
}

// Files returns the stored files sorted by name.
func (s *Server) Files() []File {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]File, 0, len(s.files))
	for _, f := range s.files {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
