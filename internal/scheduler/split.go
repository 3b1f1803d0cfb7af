package scheduler

// This file is the shared vocabulary of pieces. The core decides when an
// item is divided — at assignment (core.go: fill) or by cutting an
// attempt in flight (trySplit); the drivers own the bytes, so each lends
// the core a Splitter over its ranged attempts — run's loop over the
// live Range windows below, fault.Simulate's over its attempt walk — and
// both size a cut with SplitAt.

import (
	"context"
	"math"
	"sync"
)

// minPieceTime is the least a piece may be expected to take, in
// seconds, on the path that would carry it, whether the core sizes it
// at assignment or cuts it from an attempt: below it, the request that
// carries the piece costs more than the piece saves, and the item stays
// whole. A piece costs a request of its own, and a cut carrier a fresh
// connection. The value comes from a sweep of the bench's workloads
// over floors of 0.5–160 ms (PERFORMANCE.md §17): vod_unshaped's
// unbound links split below 2.5 ms and never from there up, while
// vod_shaped and upload_shaped keep every division they make up to
// 10 ms and begin to duplicate instead at 20 ms. 10 ms is the largest
// floor that keeps them, so the fewest requests.
const minPieceTime = 0.010

// leastPiece is the smallest piece worth a request on a path estimated
// at est bits/s, in bytes.
func leastPiece(est float64) int64 { return int64(math.Ceil(minPieceTime * est / 8)) }

// SplitAt is where a split cuts an attempt that has received its bytes
// up to pos of a window ending at end: the idle path takes share of the
// end−pos bytes left. ok is false when that tail is under least bytes.
func SplitAt(pos, end int64, share float64, least int64) (at int64, ok bool) {
	tail := int64(share * float64(end-pos))
	if tail <= 0 || tail < least {
		return 0, false
	}
	return end - tail, true
}

// Splitter is a driver's view of the byte windows its ranged attempts
// carry, which the core reads and cuts to split one. The core calls it
// only from Idle, so from the driver's one loop.
type Splitter interface {
	// Ranged reports whether path p can carry a byte range of an item
	// now.
	Ranged(p int) bool
	// Left reports how many bytes path p's running attempt has yet to
	// receive; ok is false while that is unknown, and always when the
	// attempt cannot be cut.
	Left(p int) (left int64, ok bool)
	// Cut cuts path p's running attempt, for which Left was ok, at
	// SplitAt(held, end, share, least), held being the bytes it has
	// received or is receiving, and reports the tail [at, end) it gave
	// up; ok is false, and nothing is cut, when SplitAt's is.
	Cut(p int, share float64, least int64) (at, end int64, ok bool)
}

// RangePath is a Path that can carry a byte range of an item: a piece
// that the core sized when it assigned it, or the tail of a split. The
// two capabilities pieces need are read off the path separately: whether
// it can carry a piece now, and whether its running attempts can be cut
// short (what the endgame split needs of the carrier). The live driver
// carries every attempt on such a path through TransferRange.
type RangePath interface {
	Path
	// Ranges reports whether the path can carry a piece of an item now;
	// the core asks before each assignment.
	Ranges() bool
	// Cuts reports whether the path's attempts can be cut short while
	// they run; the driver asks once per transaction.
	Cuts() bool
	// TransferRange moves the bytes of item that r bounds — from r.Off
	// up to r's end, which a split may lower while it runs — calling
	// progress, when not nil, as TransferProgress does. An attempt at a
	// whole item (no end yet) on a path that Cuts declares the item's
	// size with SetEnd as soon as it learns it, and reads its body
	// through Take and Got.
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

func (r *Range) cut(share float64, least int64) (at, end int64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.end == 0 {
		return 0, 0, false
	}
	if at, ok = SplitAt(r.Off+r.claim, r.end, share, least); ok {
		end, r.end = r.end, at
	}
	return at, end, ok
}

// Ranged, Left and Cut make run's loop the core's Splitter, over the
// windows of the attempts it runs. Only the loop calls them; a window's
// own lock is for the attempt's goroutine, which moves its bytes.
func (l *loop) Ranged(p int) bool { return l.paths[p].rp != nil && l.paths[p].rp.Ranges() }

func (l *loop) Left(p int) (int64, bool) {
	if lp := &l.paths[p]; lp.att != nil && lp.cuts {
		return lp.att.window.left()
	}
	return 0, false
}

func (l *loop) Cut(p int, share float64, least int64) (int64, int64, bool) {
	if a := l.paths[p].att; a != nil && a.window != nil {
		return a.window.cut(share, least)
	}
	return 0, 0, false
}
