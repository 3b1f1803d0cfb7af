package scheduler

import (
	"context"
	"sync"
	"testing"
	"time"
)

// windowPath is a RangePath that moves the bytes of its attempts' windows
// through the Range as transfer.DownloadPath reads a body, so a cut
// shows as the window's end falling while the attempt runs. A path that
// Cuts declares a whole item's size as DownloadPath does; one that does
// not, as transfer.UploadPath, never does. It records each attempt's
// end as it started and as it returned.
type windowPath struct {
	name  string
	rates []float64 // bytes per second of each attempt; the last repeats
	cuts  bool

	mu   sync.Mutex
	ends [][2]int64
}

func (p *windowPath) Name() string { return p.name }
func (p *windowPath) Ranges() bool { return true }
func (p *windowPath) Cuts() bool   { return p.cuts }

func (p *windowPath) Transfer(ctx context.Context, item Item) (int64, error) {
	return p.TransferRange(ctx, item, &Range{}, nil)
}

func (p *windowPath) TransferRange(ctx context.Context, item Item, r *Range, progress func(int64)) (int64, error) {
	if p.cuts {
		r.SetEnd(item.Size)
	}
	end := func() int64 {
		if e := r.End(); e > 0 {
			return e
		}
		return item.Size
	}
	first := end()
	p.mu.Lock()
	rate := p.rates[min(len(p.ends), len(p.rates)-1)]
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.ends = append(p.ends, [2]int64{first, end()})
		p.mu.Unlock()
	}()
	start := time.Now()
	var got int64
	for r.Off+got < end() {
		for due := int64(time.Since(start).Seconds()*rate) - got; due > 0; {
			k := r.Take(int(min(due, end()-r.Off-got)))
			if k == 0 {
				break
			}
			r.Got(k)
			got, due = got+int64(k), due-int64(k)
		}
		select {
		case <-ctx.Done():
			return got, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return got, nil
}

// An attempt on a path that cannot be cut — an upload, which declares its
// length — is never cut, though the endgame would split it on a path
// that can. The two paths move four small photos at one rate and divide
// the large last one between them by it, but the slow path's link then
// slows to a quarter: the fast path frees up while the slow one still
// carries most of its piece.
func TestAttemptsThatCannotBeCutAreNeverCut(t *testing.T) {
	items := mkItems(5, 200<<10)
	items[4].Size = 2 << 20
	for _, cuts := range []bool{true, false} {
		fast := &windowPath{name: "fast", rates: []float64{8 << 20}, cuts: cuts}
		slow := &windowPath{name: "slow", rates: []float64{8 << 20, 8 << 20, 2 << 20}, cuts: cuts}
		rep, err := Run(context.Background(), Greedy, items, []Path{fast, slow}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var pieces, cut int
		for _, p := range []*windowPath{fast, slow} {
			for _, e := range p.ends {
				if e[0] != 200<<10 && e[0] != 2<<20 {
					pieces++
				}
				if e[1] != e[0] {
					cut++
				}
			}
		}
		t.Logf("cuts %v: %d splits, %d duplicates; %d attempts carried a piece, %d were cut", cuts, rep.Splits, rep.Duplicates, pieces, cut)
		switch {
		case pieces == 0:
			t.Errorf("cuts %v: no attempt carried a piece", cuts)
		case cuts && cut == 0:
			t.Error("paths that can be cut: no attempt was cut; the endgame should split")
		case !cuts && cut != 0:
			t.Errorf("paths that cannot be cut: %d attempts cut", cut)
		}
	}
}
