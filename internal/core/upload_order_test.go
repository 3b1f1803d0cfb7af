package core

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"threegol/internal/cellular"
	"threegol/internal/fault"
	"threegol/internal/scheduler"
)

// The uploader offers the scheduler its photos longest-first, and
// reports in the caller's order: one path takes them in the offered
// order, so the server sees the largest first, and ItemDone[i] is still
// photos[i]'s completion.
func TestUploadOffersPhotosLongestFirst(t *testing.T) {
	var (
		mu   sync.Mutex
		seen []string
	)
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mr, err := r.MultipartReader()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for {
			part, err := mr.NextPart()
			if err != nil {
				break
			}
			_, _ = io.Copy(io.Discard, part)
			mu.Lock()
			seen = append(seen, part.FileName())
			mu.Unlock()
		}
		w.WriteHeader(http.StatusCreated)
	}))
	defer sink.Close()

	h := testHome(t)
	photos := make([]Photo, 4)
	for i, k := range []int{1, 3, 2, 4} {
		photos[i] = Photo{Name: strings.Repeat("x", k) + ".jpg", Data: make([]byte, k*64<<10)}
	}
	res, err := h.UploadPhotos(context.Background(), photos, UploadOptions{
		Algo: scheduler.RoundRobin, TargetURL: sink.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"xxxx.jpg", "xxx.jpg", "xx.jpg", "x.jpg"}
	if strings.Join(seen, " ") != strings.Join(want, " ") {
		t.Errorf("server saw %v, want %v", seen, want)
	}
	// Largest first on one path: photos[3] (4 units) ends first, then
	// photos[1], photos[2], photos[0].
	done := res.SchedulerReport.ItemDone
	for _, pair := range [][2]int{{3, 1}, {1, 2}, {2, 0}} {
		if done[pair[0]] >= done[pair[1]] {
			t.Errorf("ItemDone %v: photos[%d] should complete before photos[%d]", done, pair[0], pair[1])
		}
	}

	// A server that refuses everything fails the first photo offered,
	// the largest, and the error names it by the caller's index.
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		http.Error(w, "no", http.StatusInternalServerError)
	}))
	defer refuse.Close()
	_, err = h.UploadPhotos(context.Background(), photos, UploadOptions{
		Algo: scheduler.RoundRobin, TargetURL: refuse.URL,
	})
	var ie *scheduler.ItemError
	if !errors.As(err, &ie) {
		t.Fatalf("upload to a refusing server: %v, want an ItemError", err)
	}
	if ie.ItemID != 3 || ie.ItemName != photos[3].Name {
		t.Errorf("ItemError names item %d (%s), want 3 (%s)", ie.ItemID, ie.ItemName, photos[3].Name)
	}
}

// Two photos may not share a name: the source is keyed by name, so every
// copy would upload the last one's bytes under its own size, fail short
// or long and be retried until the transaction aborts. The set is
// rejected before a byte moves.
func TestUploadRejectsRepeatedPhotoName(t *testing.T) {
	var hits atomic.Int64
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusCreated)
	}))
	defer sink.Close()
	h := testHome(t)

	a, b := make([]byte, 64<<10), make([]byte, 128<<10)
	for _, tc := range []struct {
		name   string
		photos []Photo
		dup    string
	}{
		{"same bytes", []Photo{{"a.jpg", a}, {"a.jpg", a}}, "a.jpg"},
		{"different sizes", []Photo{{"a.jpg", a}, {"b.jpg", b}, {"a.jpg", b}}, "a.jpg"},
		{"not adjacent", []Photo{{"c.jpg", a}, {"a.jpg", b}, {"b.jpg", a}, {"c.jpg", b}}, "c.jpg"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hits.Store(0)
			_, err := h.UploadPhotos(context.Background(), tc.photos, UploadOptions{
				Algo: scheduler.Greedy, TargetURL: sink.URL,
			})
			if err == nil {
				t.Fatal("a set with a repeated name was accepted")
			}
			if !strings.Contains(err.Error(), tc.dup) {
				t.Errorf("error %q does not name %s", err, tc.dup)
			}
			if n := hits.Load(); n != 0 {
				t.Errorf("the server saw %d requests; a rejected set moves no bytes", n)
			}
		})
	}
}

// The order UploadPhotos offers photos in is worth ≈4 % of
// upload_shaped's transaction: the real decision core, driven in virtual
// time at loc1's uplinks × 150 on the workload's 12 photos, ends at
// 668.8 ms in the caller's order and at 638.6 ms longest-first (the
// fluid floor, every path busy to the end, is 608.4 ms).
func TestLongestFirstShortensUploadShaped(t *testing.T) {
	const scale = 150
	loc, ok := cellular.FindLocation(cellular.EvalLocations, "loc1")
	if !ok {
		t.Fatal("loc1 missing")
	}
	_, ul := cellular.RadioCaps(loc.SignalDBm)
	phoneUp := ul * cellular.DefaultParams().FadingMean
	paths := []fault.SimPath{
		{Name: "adsl", Rate: loc.DSLUp * scale / 8},
		{Name: "ph1", Rate: phoneUp * scale / 8},
		{Name: "ph2", Rate: phoneUp * scale / 8},
	}
	photos := GeneratePhotos(12, 42)
	elapsed := func(order []int) time.Duration {
		t.Helper()
		sizes := make([]int64, len(order))
		for id, i := range order {
			sizes[id] = int64(len(photos[i].Data))
		}
		rep, err := fault.Simulate(fault.SimConfig{Paths: paths, Items: sizes, Plan: fault.NewPlan()})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != len(photos) {
			t.Fatalf("%d of %d photos delivered", rep.Completed, len(photos))
		}
		return time.Duration(rep.Elapsed * float64(time.Second))
	}
	given := make([]int, len(photos))
	for i := range given {
		given[i] = i
	}
	caller, offered := elapsed(given), elapsed(uploadOrder(photos))
	t.Logf("caller's order %v, longest-first %v", caller, offered)
	if offered > 640*time.Millisecond {
		t.Errorf("longest-first upload ends at %v, want ≤ 640 ms (caller's order: %v)", offered, caller)
	}
}
