package upload

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// FuzzPieceWindow holds the server's reading of a piece's Content-Range
// to its contract: it never panics, accepts only a non-empty window
// inside its file, and what it accepts prints back to the header.
func FuzzPieceWindow(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string) {
		off, end, size, ok := parseWindow(h)
		if !ok {
			return
		}
		if off < 0 || end <= off || end > size {
			t.Fatalf("parseWindow(%q) accepted [%d, %d) of %d", h, off, end, size)
		}
		if back := fmt.Sprintf("bytes %d-%d/%d", off, end-1, size); back != h {
			t.Fatalf("parseWindow(%q) = [%d, %d) of %d, which prints as %q", h, off, end, size, back)
		}
	})
}

// pieceForm is the multipart body of one file part of name carrying
// body, the piece window names ("" for the whole file), and its content
// type; body starts at form[start:].
func pieceForm(t *testing.T, name, window string, body []byte) (form []byte, start int, contentType string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	h := textproto.MIMEHeader{"Content-Disposition": {`form-data; name="file"; filename="` + name + `"`}}
	if window != "" {
		h.Set("Content-Range", window)
	}
	part, err := mw.CreatePart(h)
	if err != nil {
		t.Fatal(err)
	}
	start = buf.Len()
	part.Write(body)
	mw.Close()
	return buf.Bytes(), start, mw.FormDataContentType()
}

// postPiece POSTs body as the piece of name that window names (the
// whole file for "") through client and returns the status, or 0 when
// the request failed on the client's side: with abortAt ≥ 0, the body
// errs after abortAt of its bytes.
func postPiece(t *testing.T, client *http.Client, url, name, window string, body []byte, abortAt int) int {
	t.Helper()
	form, start, contentType := pieceForm(t, name, window, body)
	var r io.Reader = bytes.NewReader(form)
	if abortAt >= 0 {
		r = io.MultiReader(bytes.NewReader(form[:start+abortAt]), errReader{})
	}
	return postForm(t, client, url, r, len(form), contentType)
}

// postForm POSTs the n-byte form body r, and returns the status, or 0
// when the request failed on the client's side.
func postForm(t *testing.T, client *http.Client, url string, r io.Reader, n int, contentType string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, r)
	if err != nil {
		t.Error(err)
		return 0
	}
	req.ContentLength = int64(n)
	req.Header.Set("Content-Type", contentType)
	resp, err := client.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode == http.StatusCreated && resp.Header.Get("Accept-Ranges") != "bytes" {
		t.Errorf("a 201 without Accept-Ranges: bytes")
	}
	return resp.StatusCode
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("the sender gave up") }

// windowHeader is the Content-Range of the bytes [off, end) of a
// size-byte file.
func windowHeader(off, end, size int64) string {
	return "bytes " + strconv.FormatInt(off, 10) + "-" + strconv.FormatInt(end-1, 10) + "/" + strconv.FormatInt(size, 10)
}

// The server assembles photos sent in pieces, held to a map model over
// random schedules of photos up to 1.5 MB, so that pieces cross the
// assemblies' 1 MB chunks: every photo's pieces arrive in a random order,
// interleaved with the other photos', and before a piece goes through
// the schedule may send it short (400), abort it mid-body, send a
// malformed window, one that overlaps a recorded piece — a replay (201)
// when all of its bytes are in, refused (400) when only some are — one
// that disagrees with the photo's size (400), or a recorded piece again,
// as its sender does when the answer to it was lost (a replay). A photo
// is stored once, with the whole photo's digest and a copy for it and
// each replay, exactly when the model has all of its bytes; nothing else
// is stored; and every assembly chunk is, after each request, in one
// place: an assembly, or the free list, to which an assembly that ends
// gives its chunks back.
func TestAssemblyModel(t *testing.T) {
	inAssembly, alive := map[*chunk]bool{}, len(freeChunks())
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := &Server{}
		// An aborted piece is over for the server when its connection,
		// which carries it alone, closes there.
		var closedMu sync.Mutex
		closed := map[string]bool{}
		srv := httptest.NewUnstartedServer(s)
		srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
			if st == http.StateClosed {
				closedMu.Lock()
				closed[c.RemoteAddr().String()] = true
				closedMu.Unlock()
			}
		}
		srv.Start()
		type photo struct {
			name    string
			data    []byte
			pieces  [][2]int64
			got     [][2]int64 // the model: pieces recorded
			replays int        // the model: pieces sent again once in
		}
		photos := make([]*photo, 2+rng.Intn(3))
		var queue []*photo
		for i := range photos {
			p := &photo{name: "IMG_" + strconv.Itoa(i) + ".jpg", data: make([]byte, 1+rng.Intn(1_500_000))}
			rng.Read(p.data)
			cuts := []int64{0, int64(len(p.data))}
			for k := rng.Intn(4); k > 0; k-- {
				cuts = append(cuts, rng.Int63n(int64(len(p.data))))
			}
			slices.Sort(cuts)
			cuts = slices.Compact(cuts)
			for j := 1; j < len(cuts); j++ {
				p.pieces = append(p.pieces, [2]int64{cuts[j-1], cuts[j]})
				queue = append(queue, p)
			}
			rng.Shuffle(len(p.pieces), func(a, b int) { p.pieces[a], p.pieces[b] = p.pieces[b], p.pieces[a] })
			photos[i] = p
		}
		rng.Shuffle(len(queue), func(a, b int) { queue[a], queue[b] = queue[b], queue[a] })

		check := func(step string) {
			t.Helper()
			files := map[string]File{}
			for _, f := range s.Files() {
				files[f.Name] = f
			}
			onList := freeChunks()
			s.mu.Lock()
			now := map[*chunk]bool{}
			for _, a := range s.assembling {
				for _, c := range a.chunks {
					if now[c] || onList[c] {
						t.Fatalf("seed %d, %s: a chunk is in two assemblies, or also on the free list", seed, step)
					}
					now[c] = true
				}
			}
			s.mu.Unlock()
			for c := range inAssembly {
				if !now[c] && !onList[c] {
					t.Fatalf("seed %d, %s: an assembly ended without giving its chunks back", seed, step)
				}
			}
			// A request moves chunks between the list and an assembly,
			// or makes them when the list has none; none is ever lost.
			if len(now)+len(onList) < alive {
				t.Fatalf("seed %d, %s: %d chunks in assemblies and on the list, %d before", seed, step, len(now)+len(onList), alive)
			}
			inAssembly, alive = now, len(now)+len(onList)
			for _, p := range photos {
				var have int64
				for _, w := range p.got {
					have += w[1] - w[0]
				}
				f, stored := files[p.name]
				sum := sha256.Sum256(p.data)
				switch {
				case stored != (have == int64(len(p.data))):
					t.Fatalf("seed %d, %s: %s stored = %v with %d of its %d bytes in", seed, step, p.name, stored, have, len(p.data))
				case stored && (f.Size != int64(len(p.data)) || f.SHA256 != hex.EncodeToString(sum[:]) || f.Copies != 1+p.replays):
					t.Fatalf("seed %d, %s: %s stored as %+v", seed, step, p.name, f)
				}
			}
			if len(files) > len(photos) {
				t.Fatalf("seed %d, %s: %d files stored from %d photos", seed, step, len(files), len(photos))
			}
		}
		send := func(p *photo, w [2]int64, window string, body []byte, abortAt, want int) {
			t.Helper()
			step := fmt.Sprintf("%s %q (%d bytes, abort at %d)", p.name, window, len(body), abortAt)
			client, local := http.DefaultClient, ""
			if abortAt >= 0 {
				client = &http.Client{Transport: &http.Transport{
					DisableKeepAlives: true,
					DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
						c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
						if err == nil {
							local = c.LocalAddr().String()
						}
						return c, err
					},
				}}
			}
			if got := postPiece(t, client, srv.URL, p.name, window, body, abortAt); got != want {
				t.Fatalf("seed %d, %s: status %d, want %d", seed, step, got, want)
			}
			switch {
			case want == http.StatusCreated && in(p.got, w) == w[1]-w[0]:
				p.replays++
			case want == http.StatusCreated:
				p.got = append(p.got, w)
			}
			for deadline := time.Now().Add(5 * time.Second); local != ""; time.Sleep(time.Millisecond) {
				closedMu.Lock()
				over := closed[local]
				closedMu.Unlock()
				if over {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("seed %d, %s: the server has not seen the abort", seed, step)
				}
			}
			check(step)
		}
		for _, p := range queue {
			w := p.pieces[0]
			p.pieces = p.pieces[1:]
			size := int64(len(p.data))
			body := p.data[w[0]:w[1]]
			hdr := windowHeader(w[0], w[1], size)
			switch k := rng.Intn(10); {
			case k == 0 && len(body) > 1:
				send(p, w, hdr, body[:rng.Intn(len(body))], -1, http.StatusBadRequest)
			case k == 1 && len(body) > 1:
				send(p, w, hdr, body, rng.Intn(len(body)), 0)
			case k == 2:
				bad := []string{
					"bytes " + strconv.FormatInt(w[1]-1, 10) + "-" + strconv.FormatInt(w[0], 10) + "/" + strconv.FormatInt(size, 10),
					windowHeader(w[0], size+1, size), "bytes 0" + hdr[6:], "bytes=" + hdr[6:], hdr + "/1", "bytes -1-2/3",
				}[rng.Intn(6)]
				if bad != hdr {
					send(p, w, bad, body, -1, http.StatusBadRequest)
				}
			case k == 3 && len(p.got) > 0:
				g := p.got[rng.Intn(len(p.got))]
				off := g[0] + rng.Int63n(g[1]-g[0])
				end := min(size, off+1+rng.Int63n(size-off))
				want := http.StatusBadRequest
				if in(p.got, [2]int64{off, end}) == end-off {
					want = http.StatusCreated
				}
				send(p, [2]int64{off, end}, windowHeader(off, end, size), p.data[off:end], -1, want)
			case k == 4 && len(p.got) > 0:
				send(p, w, windowHeader(w[0], w[1], size+1), body, -1, http.StatusBadRequest)
			case k == 5 && len(p.got) > 0:
				g := p.got[rng.Intn(len(p.got))]
				send(p, g, windowHeader(g[0], g[1], size), p.data[g[0]:g[1]], -1, http.StatusCreated)
			}
			send(p, w, hdr, body, -1, http.StatusCreated)
		}
		for _, p := range photos {
			// Whole: any piece of it now is a replay, unless it disagrees
			// with the photo's size.
			size := int64(len(p.data))
			send(p, [2]int64{0, 1}, windowHeader(0, 1, size), p.data[:1], -1, http.StatusCreated)
			send(p, [2]int64{0, 1}, windowHeader(0, 1, size+1), p.data[:1], -1, http.StatusBadRequest)
		}
		srv.Close()
		if len(s.assembling) != 0 {
			t.Fatalf("seed %d: assemblies left: %v", seed, s.assembling)
		}
	}
}

// in returns how many of the bytes of w the windows got, which do not
// overlap, hold.
func in(got [][2]int64, w [2]int64) int64 {
	var n int64
	for _, g := range got {
		n += max(0, min(w[1], g[1])-max(w[0], g[0]))
	}
	return n
}

// freeChunks returns the chunks on the free list, which it leaves as it
// found them.
func freeChunks() map[*chunk]bool {
	free := map[*chunk]bool{}
	for c, ok := chunks.Get(chunkSize); ok; c, ok = chunks.Get(chunkSize) {
		free[c] = true
	}
	for c := range free {
		chunks.Put(c, chunkSize)
	}
	return free
}

// Pieces of several photos arriving at once, each window twice, assemble
// as they would one by one: of two copies of a window one is recorded
// and the other, which waits while the first is read, is a replay; every
// photo is stored once, whole, with a copy for it and each replay.
func TestAssemblyConcurrentPieces(t *testing.T) {
	s := &Server{}
	srv := httptest.NewServer(s)
	defer srv.Close()
	rng := rand.New(rand.NewSource(7))
	type send struct {
		name        string
		off, end, n int64
		data        []byte
	}
	var sends []send
	digests := map[string]string{}
	for i := 0; i < 4; i++ {
		photo := make([]byte, 200_000+rng.Intn(100_000))
		rng.Read(photo)
		name, size := "IMG_"+strconv.Itoa(i)+".jpg", int64(len(photo))
		sum := sha256.Sum256(photo)
		digests[name] = hex.EncodeToString(sum[:])
		for off := int64(0); off < size; off += size / 4 {
			end := min(size, off+size/4)
			sends = append(sends, send{name, off, end, size, photo[off:end]}, send{name, off, end, size, photo[off:end]})
		}
	}
	rng.Shuffle(len(sends), func(a, b int) { sends[a], sends[b] = sends[b], sends[a] })
	statuses := make([]int, len(sends))
	var wg sync.WaitGroup
	for i, sd := range sends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[i] = postPiece(t, http.DefaultClient, srv.URL, sd.name, windowHeader(sd.off, sd.end, sd.n), sd.data, -1)
		}()
	}
	wg.Wait()
	windows := map[string]int{}
	for i, sd := range sends {
		windows[sd.name]++
		if statuses[i] != http.StatusCreated {
			t.Errorf("%s %s: status %d", sd.name, windowHeader(sd.off, sd.end, sd.n), statuses[i])
		}
	}
	files := s.Files()
	if len(files) != len(digests) {
		t.Fatalf("%d photos stored, want %d", len(files), len(digests))
	}
	for _, f := range files {
		if f.SHA256 != digests[f.Name] || f.Copies != 1+windows[f.Name]/2 {
			t.Errorf("%s stored as %+v, digest %s, %d windows sent twice", f.Name, f, digests[f.Name], windows[f.Name]/2)
		}
	}
	if len(s.assembling) != 0 {
		t.Errorf("assemblies left: %v", s.assembling)
	}
}

// A piece sent again while the server still reads its first copy — the
// sender gave that copy up, or has yet to finish it — waits until that
// read settles: it is recorded when the first copy failed, and is a
// replay of it when the first copy arrived.
func TestAssemblyRetryWaitsForTheRead(t *testing.T) {
	photo := make([]byte, 100_000)
	rand.New(rand.NewSource(3)).Read(photo)
	size, half := int64(len(photo)), int64(len(photo)/2)
	sum := sha256.Sum256(photo)
	for _, firstArrives := range []bool{false, true} {
		s := &Server{}
		srv := httptest.NewServer(s)
		if got := postPiece(t, http.DefaultClient, srv.URL, "a.jpg", windowHeader(half, size, size), photo[half:], -1); got != http.StatusCreated {
			t.Fatalf("second half: status %d", got)
		}
		// The first copy of the first half stops a quarter of the way in
		// until the test lets it finish or fail.
		form, start, contentType := pieceForm(t, "a.jpg", windowHeader(0, half, size), photo[:half])
		pr, pw := io.Pipe()
		body := io.MultiReader(bytes.NewReader(form[:start+int(half/2)]), pr)
		first, second := make(chan int, 1), make(chan int, 1)
		client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		go func() { first <- postForm(t, client, srv.URL, body, len(form), contentType) }()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			s.mu.Lock()
			a := s.assembling["a.jpg"]
			reading := a != nil && a.busy()
			s.mu.Unlock()
			if reading {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the server never took the first copy's window")
			}
		}
		go func() {
			second <- postPiece(t, http.DefaultClient, srv.URL, "a.jpg", windowHeader(0, half, size), photo[:half], -1)
		}()
		select {
		case got := <-second:
			t.Fatalf("the second copy was answered %d while the first is read", got)
		case <-time.After(50 * time.Millisecond):
		}
		want := 0
		if firstArrives {
			want = http.StatusCreated
			pw.Write(form[start+int(half/2):])
			pw.Close()
		} else {
			pw.CloseWithError(errors.New("the sender gave up"))
		}
		if got := <-first; got != want {
			t.Errorf("first arrives %v: the first copy's status %d, want %d", firstArrives, got, want)
		}
		if got := <-second; got != http.StatusCreated {
			t.Errorf("first arrives %v: the second copy's status %d", firstArrives, got)
		}
		srv.Close()
		copies := 1
		if firstArrives {
			copies = 2
		}
		want2 := []File{{Name: "a.jpg", Size: size, SHA256: hex.EncodeToString(sum[:]), Copies: copies}}
		if files := s.Files(); !slices.Equal(files, want2) {
			t.Errorf("first arrives %v: stored %+v, want %+v", firstArrives, files, want2)
		}
		if len(s.assembling) != 0 {
			t.Errorf("first arrives %v: assemblies left: %v", firstArrives, s.assembling)
		}
	}
}

// The photos being assembled hold at most MaxBytes between them: a piece
// of a photo larger than the room left is refused, and the room comes
// back when a photo is stored — from its pieces, or whole, which ends
// its assembly — or when its sender has abandoned it: the next photo to
// start takes the room of an assembly no piece has reached for longer
// than abandoned.
func TestAssemblyBound(t *testing.T) {
	clk := &fakeClock{}
	s := &Server{MaxBytes: 1000, clk: clk}
	srv := httptest.NewServer(s)
	defer srv.Close()
	data := make([]byte, 1000)
	for _, tc := range []struct {
		name, window string
		body         []byte
		want         int
		later        time.Duration // the clock moves on first
	}{
		{"big.jpg", windowHeader(0, 10, 1001), data[:10], http.StatusBadRequest, 0},
		{"a.jpg", windowHeader(0, 10, 600), data[:10], http.StatusCreated, 0},
		{"b.jpg", windowHeader(0, 10, 401), data[:10], http.StatusBadRequest, 0},
		{"b.jpg", windowHeader(0, 10, 400), data[:10], http.StatusCreated, 0},
		{"a.jpg", windowHeader(10, 600, 600), data[10:600], http.StatusCreated, 0},
		{"c.jpg", windowHeader(0, 600, 600), data[:600], http.StatusCreated, 0},
		// b.jpg's sender stops; d.jpg starts, and is sent whole, which
		// leaves f.jpg its room; f.jpg's sender stops too.
		{"d.jpg", windowHeader(0, 10, 600), data[:10], http.StatusCreated, 0},
		{"d.jpg", "", data[:600], http.StatusCreated, 0},
		{"f.jpg", windowHeader(0, 10, 600), data[:10], http.StatusCreated, 0},
		{"e.jpg", windowHeader(0, 10, 601), data[:10], http.StatusBadRequest, abandoned},
		{"e.jpg", windowHeader(0, 10, 601), data[:10], http.StatusCreated, time.Second},
	} {
		clk.ns.Add(int64(tc.later))
		if got := postPiece(t, http.DefaultClient, srv.URL, tc.name, tc.window, tc.body, -1); got != tc.want {
			t.Errorf("%s %q: status %d, want %d", tc.name, tc.window, got, tc.want)
		}
	}
	if st := s.Stats(); st.Files != 3 {
		t.Errorf("%d files stored, want a.jpg, c.jpg and d.jpg", st.Files)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.assemblyBytes != 601 || len(s.assembling) != 1 || s.assembling["e.jpg"] == nil {
		t.Errorf("%d bytes in assemblies %v, want e.jpg's 601 alone", s.assemblyBytes, s.assembling)
	}
}

// fakeClock is a clock.Clock that moves only when told to.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) Now() time.Time                  { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }
func (c *fakeClock) Sleep(d time.Duration)           { c.ns.Add(int64(d)) }
