package scheduler

// This file is the endgame split's shared vocabulary. The core decides
// when a split happens (core.go: trySplit); the drivers own the bytes,
// so each lends the core a Splitter over its ranged attempts — run's
// over the live Range windows below, fault.Simulate's over its attempt
// walk — and both size the cut with SplitAt.

import (
	"context"
	"sync"
)

// MinPiece is the smallest tail a split hands an idle path, in bytes:
// below it, the second request costs more than the bytes it moves, and
// the endgame duplicates instead.
const MinPiece = 64 << 10

// SplitAt is where a split cuts an attempt that has received its bytes
// up to pos of a window ending at end: the idle path takes share of the
// end−pos bytes left. ok is false when that tail is under MinPiece.
func SplitAt(pos, end int64, share float64) (at int64, ok bool) {
	tail := int64(share * float64(end-pos))
	if tail < MinPiece {
		return 0, false
	}
	return end - tail, true
}

// Splitter is a driver's view of the byte windows its ranged attempts
// carry, which the core reads and cuts to split one. The core calls it
// only from Idle, under whatever serialises the driver's calls.
type Splitter interface {
	// Ranged reports whether path p can carry a byte range of an item
	// and have a running attempt cut short.
	Ranged(p int) bool
	// Left reports how many bytes path p's running attempt has yet to
	// receive; ok is false while that is unknown.
	Left(p int) (left int64, ok bool)
	// Cut cuts path p's running attempt at SplitAt(held, end, share),
	// held being the bytes it has received or is receiving, and reports
	// the tail [at, end) it gave up; ok is false, and nothing is cut,
	// when SplitAt's is.
	Cut(p int, share float64) (at, end int64, ok bool)
}

// RangePath is a Path that can carry a byte range of an item and have a
// running attempt cut short: what the endgame split needs of the
// carrier and of the idle path alike. The live driver carries every
// attempt on such a path through TransferRange, so that any of them can
// be split.
type RangePath interface {
	Path
	// TransferRange moves the bytes of item that r bounds — from r.Off
	// up to r's end, which a split may lower while it runs — calling
	// progress, when not nil, as TransferProgress does. An attempt at a
	// whole item (no end yet) declares the item's size with SetEnd as
	// soon as it learns it, and reads its body through Take and Got.
	TransferRange(ctx context.Context, item Item, r *Range, progress func(total int64)) (int64, error)
}

// Range is the byte window of an item that one attempt on a RangePath
// carries: from Off to an end that a split lowers while the attempt
// runs, never below the bytes the attempt already holds. The zero value
// with Off and Body set is a window that has no end yet.
type Range struct {
	Off int64
	// Body names the buffer the window's bytes go into (Decision.Body).
	Body int

	mu    sync.Mutex
	end   int64 // 0 while unknown
	pos   int64 // bytes received from Off
	claim int64 // pos plus the read in progress
	last  int   // bytes the last read brought
}

// minTake is the least a read may reserve; see Take.
const minTake = 16 << 10

// newRange is the window a decision hands a ranged path.
func newRange(d Decision) *Range {
	return &Range{Off: d.Off, Body: d.Body, end: d.End}
}

// End is where the window ends now, 0 while unknown.
func (r *Range) End() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.end
}

// SetEnd declares the item's size to a window that has no end yet.
func (r *Range) SetEnd(end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.end == 0 {
		r.end = end
	}
}

// Take reserves up to n of the window's next bytes for one read and
// reports how many it reserved: 0 once the window is complete. A cut
// never falls inside a reservation, so a reservation should be what the
// read will bring, not what the caller's buffer could hold: it is at
// most twice what the last read brought (minTake at least), since a
// link's reads come in steps of a steady size. Got ends it.
func (r *Range) Take(n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n = min(n, max(2*r.last, minTake))
	if r.end > 0 {
		n = int(min(int64(n), r.end-r.Off-r.pos))
	}
	r.claim = r.pos + int64(n)
	return n
}

// Got reports that n bytes of the last reservation arrived.
func (r *Range) Got(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pos += int64(n)
	r.claim = r.pos
	r.last = n
}

// Complete reports whether every byte of the window has arrived.
func (r *Range) Complete() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.end > 0 && r.Off+r.pos == r.end
}

func (r *Range) left() (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.end - r.Off - r.claim, r.end > 0
}

func (r *Range) cut(share float64) (at, end int64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.end == 0 {
		return 0, 0, false
	}
	if at, ok = SplitAt(r.Off+r.claim, r.end, share); ok {
		end, r.end = r.end, at
	}
	return at, end, ok
}

// liveSplitter is run's Splitter: windows[p] is the Range of path p's
// running attempt, nil when it carries none or cannot carry a range.
type liveSplitter struct {
	ranged  []bool
	windows []*Range
}

func (s *liveSplitter) Ranged(p int) bool { return s.ranged[p] }

func (s *liveSplitter) Left(p int) (int64, bool) {
	if s.windows[p] == nil {
		return 0, false
	}
	return s.windows[p].left()
}

func (s *liveSplitter) Cut(p int, share float64) (int64, int64, bool) {
	if s.windows[p] == nil {
		return 0, 0, false
	}
	return s.windows[p].cut(share)
}
