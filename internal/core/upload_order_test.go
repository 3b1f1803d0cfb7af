package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"threegol/internal/cellular"
	"threegol/internal/fault"
	"threegol/internal/permitplane"
	"threegol/internal/scheduler"
	"threegol/internal/upload"
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
	photos := GeneratePhotos(12, 42)
	given := make([]int, len(photos))
	for i := range given {
		given[i] = i
	}
	caller := uploadShaped(t, photos, given, false).Elapsed
	offered := uploadShaped(t, photos, uploadOrder(photoItems(photos)), false).Elapsed
	t.Logf("caller's order %.1f ms, longest-first %.1f ms", caller*1000, offered*1000)
	if offered > 0.640 {
		t.Errorf("longest-first upload ends at %.1f ms, want ≤ 640 ms (caller's order: %.1f ms)", offered*1000, caller*1000)
	}
}

// Paths that carry pieces take the rest of the way to the floor: the
// same transaction over ranged paths water-fills its last photos across
// them by rate when it assigns them, and ends within a few milliseconds
// of 608.4 ms, with no duplicate; whole photos still end at 638.6 ms.
func TestPiecesShortenUploadShaped(t *testing.T) {
	photos := GeneratePhotos(12, 42)
	whole := uploadShaped(t, photos, uploadOrder(photoItems(photos)), false)
	pieces := uploadShaped(t, photos, uploadOrder(photoItems(photos)), true)
	t.Logf("whole photos %.1f ms (%d duplicates, %d B waste); pieces %.1f ms (%d pieces, %d duplicates, %d B waste)",
		whole.Elapsed*1000, whole.Duplicates, whole.DuplicateWaste,
		pieces.Elapsed*1000, pieces.Splits, pieces.Duplicates, pieces.DuplicateWaste)
	if math.Abs(whole.Elapsed-0.6386) > 0.00005 {
		t.Errorf("whole photos end at %.2f ms, want 638.6 ms", whole.Elapsed*1000)
	}
	if pieces.Elapsed > 0.615 {
		t.Errorf("with ranged paths the upload ends at %.1f ms, want ≤ 615 ms", pieces.Elapsed*1000)
	}
	if pieces.Splits == 0 || pieces.Duplicates != 0 || pieces.DuplicateWaste != 0 {
		t.Errorf("%d pieces, %d duplicates, %d B duplicate waste: want pieces and no duplicate", pieces.Splits, pieces.Duplicates, pieces.DuplicateWaste)
	}
}

// piecesHome is a home whose three uplinks have one rate, so that every
// path has an estimate by the time the last photo is assigned, with its
// two phones discovered, and seven photos of one size: the first three
// start whole on the three paths before any has an estimate, the next
// three are each a path's share of the four left, and the last is
// divided when it is assigned.
func piecesHome(t *testing.T) (*Home, []*Phone, []Photo) {
	t.Helper()
	h, err := NewHome(HomeConfig{
		DSLDown: 2e6, DSLUp: 1.5e6, TimeScale: testTimeScale(), Seed: 42,
		Phones: []PhoneConfig{warmPhone("ph1"), warmPhone("ph2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	phones := h.AdmissibleDevices(2, 5*time.Second)
	if len(phones) != 2 {
		t.Fatal("phones not discovered")
	}
	photos := GeneratePhotos(7, 7)
	for i := range photos {
		photos[i].Data = photos[i].Data[:400<<10]
	}
	return h, phones, photos
}

// A route gated on a permit is gated in its transport, so its upload
// path still carries pieces: the permit-gated phones of a transaction
// that an upload.Server receives take part in dividing its last photo,
// and every photo arrives intact. (Gating the path itself hid that it
// carries ranges, and the core then sized no piece on any path.)
func TestPermitGatedRoutesCarryPieces(t *testing.T) {
	h, phones, photos := piecesHome(t)
	store := &upload.Server{}
	target := httptest.NewServer(store)
	defer target.Close()

	var asked atomic.Int64
	allow := func(context.Context) bool { asked.Add(1); return true }
	adsl, routes, release := h.routes(phones)
	defer release()
	for _, r := range routes {
		r.Client.Transport = permitplane.Gate(r.Client.Transport, allow)
	}
	byName := map[string][]byte{}
	for _, p := range photos {
		byName[p.Name] = p.Data
	}
	source := func(item scheduler.Item) (io.ReadCloser, error) {
		return photoReader{bytes.NewReader(byName[item.Name])}, nil
	}
	rep, err := Upload(context.Background(), scheduler.Greedy, adsl, routes, target.URL, photoItems(photos), source)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d splits, %d duplicates, %d permit checks", rep.Splits, rep.Duplicates, asked.Load())
	if asked.Load() == 0 {
		t.Error("no request asked the permit gate")
	}
	if rep.Splits == 0 {
		t.Error("no photo divided over permit-gated routes")
	}
	checkStored(t, store, photos)
}

// checkStored checks that store holds every photo, each with the digest
// of the bytes sent.
func checkStored(t *testing.T, store *upload.Server, photos []Photo) {
	t.Helper()
	digests := map[string]string{}
	for _, p := range photos {
		sum := sha256.Sum256(p.Data)
		digests[p.Name] = hex.EncodeToString(sum[:])
	}
	files := store.Files()
	if len(files) != len(photos) {
		t.Fatalf("upload.Server stored %d of %d photos", len(files), len(photos))
	}
	for _, f := range files {
		if f.SHA256 != digests[f.Name] {
			t.Errorf("%s stored with digest %s, sent %s", f.Name, f.SHA256, digests[f.Name])
		}
	}
}

// photoItems is photos as Upload's items.
func photoItems(photos []Photo) []scheduler.Item {
	items := make([]scheduler.Item, len(photos))
	for i, p := range photos {
		items[i] = scheduler.Item{Name: p.Name, Size: int64(len(p.Data))}
	}
	return items
}

// uploadShaped drives the real decision core in virtual time over
// upload_shaped's paths — loc1's ADSL and two phones' uplinks × 150,
// ranged or not — on photos offered in order, and returns its report.
func uploadShaped(t *testing.T, photos []Photo, order []int, ranged bool) *fault.SimReport {
	t.Helper()
	const scale = 150
	loc, ok := cellular.FindLocation(cellular.EvalLocations, "loc1")
	if !ok {
		t.Fatal("loc1 missing")
	}
	_, ul := cellular.RadioCaps(loc.SignalDBm)
	phoneUp := ul * cellular.DefaultParams().FadingMean
	paths := []fault.SimPath{
		{Name: "adsl", Rate: loc.DSLUp * scale / 8, Ranged: ranged},
		{Name: "ph1", Rate: phoneUp * scale / 8, Ranged: ranged},
		{Name: "ph2", Rate: phoneUp * scale / 8, Ranged: ranged},
	}
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
	return rep
}

// An uploader sends pieces of a photo only to a target that has said
// "Accept-Ranges: bytes": against a sink that never says it, the same
// transaction that an upload.Server receives partly in pieces arrives as
// whole photos only, each part with no Content-Range.
func TestUploadPiecesOnlyWhereAccepted(t *testing.T) {
	h, phones, photos := piecesHome(t)
	var pieces atomic.Int64 // parts with a Content-Range the plain sink saw
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mr, err := r.MultipartReader()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for part, err := mr.NextPart(); err == nil; part, err = mr.NextPart() {
			if part.Header.Get("Content-Range") != "" {
				pieces.Add(1)
			}
			_, _ = io.Copy(io.Discard, part)
		}
		w.WriteHeader(http.StatusCreated)
	}))
	defer plain.Close()
	store := &upload.Server{}
	accepting := httptest.NewServer(store)
	defer accepting.Close()

	send := func(target string) *scheduler.Report {
		t.Helper()
		res, err := h.UploadPhotos(context.Background(), photos, UploadOptions{
			Algo: scheduler.Greedy, Phones: phones, TargetURL: target,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.SchedulerReport
	}
	rep := send(plain.URL)
	t.Logf("plain sink: %d pieces, %d splits, %d duplicates", pieces.Load(), rep.Splits, rep.Duplicates)
	if pieces.Load() != 0 || rep.Splits != 0 {
		t.Errorf("%d pieces sent, %d splits, to a target that never said Accept-Ranges", pieces.Load(), rep.Splits)
	}
	rep = send(accepting.URL)
	t.Logf("upload.Server: %d splits, %d duplicates", rep.Splits, rep.Duplicates)
	if rep.Splits == 0 {
		t.Error("no photo divided for a target that says Accept-Ranges")
	}
	checkStored(t, store, photos)
}
