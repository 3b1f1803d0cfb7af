package upload

// This file is the server's half of a photo sent in pieces. A file part
// whose header names a window of the photo — "Content-Range: bytes
// a-b/size", the uploader's piece of a photo the scheduler divided — is
// written at its offset into the photo's assembly, and the photo is
// hashed and stored once every byte is in. The server says
// "Accept-Ranges: bytes" on its 201 responses, which is what lets an
// uploader send it pieces at all.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"threegol/internal/freelist"
)

// chunkSize is the size of the buffers an assembly is made of: one
// size, so that every chunk a photo gives back fits the next photo,
// whatever the sizes of the photos that are divided.
const chunkSize = 1 << 20

type chunk = [chunkSize]byte

// chunks is the free list assemblies take their chunks from. It is the
// package's, not a Server's, so that a chunk outlives the server that
// filled it (the bench serves every op from a fresh one); it keeps
// 16 MB, a few photos of the paper's corpus.
var chunks = freelist.List[*chunk]{Name: "upload assembly chunks", Keep: 16 * chunkSize}

// abandoned is how long an assembly may go without a piece before the
// next photo to start may take its room: its sender has given the photo
// up (the transaction failed or was cancelled), and nothing else would
// ever give back the chunks of the pieces it did record.
const abandoned = 10 * time.Minute

// assembly is a photo arriving in pieces: its bytes, in chunks; the
// windows taken — pieces recorded, and pieces being read, which another
// piece waits for — how many bytes the recorded ones hold, how many
// recorded pieces arrived again, and when a piece last came or went.
type assembly struct {
	chunks  []*chunk
	size    int64
	taken   []*window
	got     int64
	replays int
	touched time.Time
}

// window is the bytes [off, end) of an assembly: recorded, or being read
// while reading is open; it is closed when the read settles.
type window struct {
	off, end int64
	reading  chan struct{}
}

// busy reports whether a piece is being read into a, or a is whole and
// being hashed: it must not end under either.
func (a *assembly) busy() bool {
	return a.got == a.size || slices.ContainsFunc(a.taken, func(w *window) bool { return w.reading != nil })
}

// read fills the bytes [off, end) of a from r, which must end there.
func (a *assembly) read(r io.Reader, off, end int64) error {
	for pos := off; pos < end; {
		c, o := pos/chunkSize, pos%chunkSize
		n := min(end-pos, chunkSize-o)
		if _, err := io.ReadFull(r, a.chunks[c][o:o+n]); err == io.ErrUnexpectedEOF || err == io.EOF {
			return fmt.Errorf("piece ended short of its %d bytes", end-off)
		} else if err != nil {
			return err
		}
		pos += n
	}
	var one [1]byte
	if n, _ := r.Read(one[:]); n > 0 {
		return fmt.Errorf("piece runs past its %d bytes", end-off)
	}
	return nil
}

// bytes calls fn on the photo's bytes in order, a chunk at a time.
func (a *assembly) bytes(fn func([]byte)) {
	for i, c := range a.chunks {
		fn(c[:min(chunkSize, a.size-int64(i)*chunkSize)])
	}
}

// parseWindow reads a piece's Content-Range, "bytes a-b/size", into the
// window [off, end) of a size-byte photo. ok is false unless the window
// is non-empty and inside the photo, and the header is in the canonical
// form its values print back to.
func parseWindow(h string) (off, end, size int64, ok bool) {
	rest, found := strings.CutPrefix(h, "bytes ")
	a, rest, found2 := strings.Cut(rest, "-")
	b, z, found3 := strings.Cut(rest, "/")
	if !found || !found2 || !found3 {
		return 0, 0, 0, false
	}
	off, err1 := strconv.ParseInt(a, 10, 64)
	last, err2 := strconv.ParseInt(b, 10, 64)
	size, err3 := strconv.ParseInt(z, 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || off < 0 || last < off || last >= size ||
		h != "bytes "+strconv.FormatInt(off, 10)+"-"+strconv.FormatInt(last, 10)+"/"+strconv.FormatInt(size, 10) {
		return 0, 0, 0, false
	}
	return off, last + 1, size, true
}

// piece reads the bytes [off, end) of the size-byte photo name from r
// into the photo's assembly, and stores the photo once it is whole. A
// piece that fails gives its window back; an assembly left with no
// window goes, and its chunks back to the list, as does a whole one's. A
// piece whose bytes are all in already is read through and counted as a
// replay: its sender lost the answer to the first copy, or duplicated
// it.
func (s *Server) piece(ctx context.Context, name string, off, end, size int64, r io.Reader) error {
	a, w, busy, err := s.take(name, off, end, size)
	for busy != nil && err == nil {
		select {
		case <-busy:
		case <-ctx.Done():
			return ctx.Err()
		}
		a, w, busy, err = s.take(name, off, end, size)
	}
	if err != nil {
		return err
	}
	if a == nil {
		n, err := io.Copy(io.Discard, r)
		if err == nil && n != end-off {
			err = fmt.Errorf("piece of %d bytes carried %d", end-off, n)
		}
		if err == nil {
			s.replayed(name, n)
		}
		return err
	}
	if whole, err := s.settle(name, a, w, a.read(r, off, end)); !whole {
		return err
	}

	// Every window is recorded, so a piece that reaches the assembly
	// while it is hashed is a replay, which leaves its bytes alone; the
	// assembly leaves the table with the file's arrival.
	h := sha256.New()
	a.bytes(func(b []byte) { _, _ = h.Write(b) }) // a hash takes every write
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drop(name, a)
	s.keep(name, size, hex.EncodeToString(h.Sum(nil)))
	s.files[name].Copies += a.replays
	return nil
}

// settle books the read of the piece w of photo name into its assembly
// a, which failed with err or delivered the piece, and reports whether
// the photo is now whole.
func (s *Server) settle(name string, a *assembly, w *window, err error) (whole bool, _ error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	close(w.reading)
	w.reading = nil
	a.touched = s.now()
	if err != nil {
		a.taken = slices.DeleteFunc(a.taken, func(t *window) bool { return t == w })
		if len(a.taken) == 0 {
			s.drop(name, a)
		}
		return false, err
	}
	s.received(w.end - w.off)
	a.got += w.end - w.off
	return a.got == a.size, nil
}

// replayed counts a piece of n bytes of photo name that arrived after
// its bytes were in: a duplicate of the photo's File, or, until the
// photo is stored, of its assembly.
func (s *Server) replayed(name string, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.received(n)
	s.Metrics.DuplicateFiles.Inc()
	if f, ok := s.files[name]; ok {
		f.Copies++
	} else if a := s.assembling[name]; a != nil {
		a.replays++
	}
}

// drop ends photo name's assembly a and gives its chunks back. The
// caller holds s.mu.
func (s *Server) drop(name string, a *assembly) {
	delete(s.assembling, name)
	s.assemblyBytes -= a.size
	for _, c := range a.chunks {
		chunks.Put(c, chunkSize)
	}
}

// take reserves the window [off, end) of photo name's assembly. A piece
// that overlaps one being read must wait until that read settles, and
// take returns the channel closed then; otherwise the piece is judged
// against what is recorded: it takes its window if none of its bytes
// are in, is a replay, for which take returns no assembly, if all of
// them are — of the assembly, or of the photo stored whole — and is
// refused if some are.
func (s *Server) take(name string, off, end, size int64) (*assembly, *window, <-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.files[name]; ok {
		if f.Size != size {
			return nil, nil, nil, fmt.Errorf("%s is %d bytes, not %d", name, f.Size, size)
		}
		return nil, nil, nil, nil
	}
	a, err := s.assembly(name, size)
	if err != nil {
		return nil, nil, nil, err
	}
	var recorded int64
	for _, w := range a.taken {
		if n := min(end, w.end) - max(off, w.off); n > 0 && w.reading != nil {
			return nil, nil, w.reading, nil
		} else if n > 0 {
			recorded += n
		}
	}
	switch {
	case recorded == end-off:
		return nil, nil, nil, nil
	case recorded > 0:
		return nil, nil, nil, fmt.Errorf("bytes %d-%d of %s are in only in part", off, end-1, name)
	}
	w := &window{off: off, end: end, reading: make(chan struct{})}
	a.taken = append(a.taken, w)
	a.touched = s.now()
	return a, w, nil, nil
}

// assembly returns photo name's assembly, making it if there is none
// and the photo fits in the room MaxBytes leaves once the abandoned
// assemblies are gone. The caller holds s.mu.
func (s *Server) assembly(name string, size int64) (*assembly, error) {
	if a := s.assembling[name]; a != nil {
		if a.size != size {
			return nil, fmt.Errorf("%s is %d bytes, not %d", name, a.size, size)
		}
		return a, nil
	}
	now := s.now()
	for other, a := range s.assembling {
		if !a.busy() && now.Sub(a.touched) > abandoned {
			s.drop(other, a)
		}
	}
	if s.assemblyBytes+size > s.maxBytes() {
		return nil, fmt.Errorf("%s would be %d bytes, and the photos being assembled may hold %d between them, %d of them taken",
			name, size, s.maxBytes(), s.assemblyBytes)
	}
	if s.assembling == nil {
		s.assembling = make(map[string]*assembly)
	}
	s.assemblyBytes += size
	a := &assembly{size: size, chunks: make([]*chunk, (size+chunkSize-1)/chunkSize)}
	for i := range a.chunks {
		if c, ok := chunks.Get(chunkSize); ok {
			a.chunks[i] = c
		} else {
			a.chunks[i] = new(chunk)
		}
	}
	s.assembling[name] = a
	return a, nil
}
