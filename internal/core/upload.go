package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"time"

	"threegol/internal/scheduler"
	"threegol/internal/stats"
	"threegol/internal/transfer"
)

// Photo is one item of an upload transaction.
type Photo struct {
	Name string
	Data []byte
}

// GeneratePhotos synthesises a photo set matching the paper's corpus:
// sizes are log-normal with mean 2.5 MB and standard deviation 0.74 MB
// (measured over 200 iPhone 4S/5 pictures).
func GeneratePhotos(n int, seed int64) []Photo {
	rng := rand.New(rand.NewSource(seed))
	dist := stats.LogNormalFromMoments(2.5*1024*1024, 0.74*1024*1024)
	photos := make([]Photo, n)
	for i := range photos {
		size := int(dist.Sample(rng))
		if size < 64*1024 {
			size = 64 * 1024
		}
		body := make([]byte, size)
		_, _ = rng.Read(body) // never fails per math/rand contract
		photos[i] = Photo{Name: fmt.Sprintf("IMG_%04d.jpg", i+1), Data: body}
	}
	return photos
}

// TotalBytes sums the photo payloads.
func TotalBytes(photos []Photo) int64 {
	var t int64
	for _, p := range photos {
		t += int64(len(p.Data))
	}
	return t
}

// UploadOptions configure a boosted upload transaction.
type UploadOptions struct {
	Algo scheduler.Algo
	// Phones is the admissible set Φ; empty degrades to ADSL-only.
	Phones []*Phone
	// TargetURL is the upload endpoint (multipart POST).
	TargetURL string
}

// UploadResult reports a finished upload transaction in emulated time.
type UploadResult struct {
	Elapsed         time.Duration
	Bytes           int64
	SchedulerReport *scheduler.Report
}

// UploadPhotos uploads the set with Upload over the home's ADSL uplink
// plus the admissible phones, mirroring the sequential native-client
// behaviour only in shape (a multipart POST per photo) while
// parallelising across paths. The report is in the caller's order:
// ItemDone[i] and an ItemError's ItemID refer to photos[i].
func (h *Home) UploadPhotos(ctx context.Context, photos []Photo, opts UploadOptions) (*UploadResult, error) {
	if opts.TargetURL == "" {
		return nil, fmt.Errorf("core: UploadPhotos requires a TargetURL")
	}
	items := make([]scheduler.Item, len(photos))
	byName := make(map[string][]byte, len(photos))
	for i, p := range photos {
		items[i] = scheduler.Item{Name: p.Name, Size: int64(len(p.Data))}
		byName[p.Name] = p.Data
	}
	source := func(item scheduler.Item) (io.ReadCloser, error) {
		return photoReader{bytes.NewReader(byName[item.Name])}, nil
	}
	rep, err := Upload(ctx, opts.Algo, h.ADSLClient(), h.phoneRoutes(opts.Phones), opts.TargetURL, items, source)
	if err != nil {
		return nil, err
	}
	return &UploadResult{
		Elapsed:         h.ScaleDuration(rep.Elapsed),
		Bytes:           TotalBytes(photos),
		SchedulerReport: rep,
	}, nil
}

// Upload is the client component's uploader (§4.1), the one 3golc and
// Home.UploadPhotos run: it sends items to target as multipart POSTs
// (transfer.UploadPath) over direct, the ADSL route named "adsl", and
// over every route, opening each item's content with source. The
// scheduler is offered the items longest-first (stable on ties): a path
// that frees up late then picks up a small item, not a large one, so the
// paths finish closer together; and once the target has said
// "Accept-Ranges: bytes" (as upload.Server does), the last items are
// divided between the paths by their rates, each piece a POST of its
// own, so that they finish together. Items need a Name and a Size; two
// may not share a name, the key the upload server stores them by. The
// report is in the caller's order: ItemDone[i] and an ItemError's ItemID
// refer to items[i].
func Upload(ctx context.Context, algo scheduler.Algo, direct *http.Client, routes []Route, target string, items []scheduler.Item, source transfer.ItemSource) (*scheduler.Report, error) {
	order := uploadOrder(items)
	offered := make([]scheduler.Item, len(items))
	names := make(map[string]bool, len(items))
	for id, i := range order {
		it := items[i]
		if names[it.Name] {
			return nil, fmt.Errorf("core: name %q appears twice in the upload", it.Name)
		}
		names[it.Name] = true
		it.ID = id
		offered[id] = it
	}
	paths := make([]scheduler.Path, 0, 1+len(routes))
	paths = append(paths, &transfer.UploadPath{PathName: "adsl", Client: direct, TargetURL: target, Source: source})
	for _, r := range routes {
		paths = append(paths, &transfer.UploadPath{PathName: r.Name, Client: r.Client, TargetURL: target, Source: source})
	}

	rep, err := scheduler.Run(ctx, algo, offered, paths, scheduler.Options{})
	if err != nil {
		if ie := (*scheduler.ItemError)(nil); errors.As(err, &ie) {
			ie.ItemID = order[ie.ItemID]
		}
		return nil, fmt.Errorf("core: upload transaction: %w", err)
	}
	done := make([]time.Duration, len(items))
	for id, i := range order {
		done[i] = rep.ItemDone[id]
	}
	rep.ItemDone = done
	return rep, nil
}

// photoReader is a photo's content as the upload paths read it:
// seekable, so that a piece of the photo starts at its offset.
type photoReader struct{ *bytes.Reader }

func (photoReader) Close() error { return nil }

// uploadOrder is the order Upload offers items to the scheduler: their
// indices longest-first, stable on ties.
func uploadOrder(items []scheduler.Item) []int {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(items[b].Size, items[a].Size) })
	return order
}

// BaselineUpload uploads the set sequentially over ADSL alone — the
// native-client baseline the paper compares against. It sends the photos
// longest-first, as UploadPhotos does; one path's total does not depend
// on the order.
func (h *Home) BaselineUpload(ctx context.Context, photos []Photo, targetURL string) (*UploadResult, error) {
	return h.UploadPhotos(ctx, photos, UploadOptions{
		Algo:      scheduler.RoundRobin, // single path: the offered order
		TargetURL: targetURL,
	})
}
