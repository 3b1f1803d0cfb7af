package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
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
	// MinAlpha and DisableDuplication are the ablation knobs.
	MinAlpha           float64
	DisableDuplication bool
}

// UploadResult reports a finished upload transaction in emulated time.
type UploadResult struct {
	Elapsed         time.Duration
	Bytes           int64
	SchedulerReport *scheduler.Report
}

// UploadPhotos uploads the set over the ADSL uplink plus the admissible
// phones, mirroring the sequential native-client behaviour only in shape
// (multipart POST per photo) while parallelising across paths. The
// scheduler is offered the photos longest-first (stable on ties): a path
// that frees up late then picks up a small photo, not a large one, so the
// paths finish closer together; and once the target has said
// "Accept-Ranges: bytes" (as upload.Server does), the last photos are
// divided between the paths by their rates, each piece a POST of its
// own, so that they finish together. The report is in the caller's order:
// ItemDone[i] and an ItemError's ItemID refer to photos[i]. Two photos
// may not share a name, the key the upload server stores them by.
func (h *Home) UploadPhotos(ctx context.Context, photos []Photo, opts UploadOptions) (*UploadResult, error) {
	if opts.TargetURL == "" {
		return nil, fmt.Errorf("core: UploadPhotos requires a TargetURL")
	}
	order := uploadOrder(photos)
	items := make([]scheduler.Item, len(photos))
	byName := make(map[string][]byte, len(photos))
	for id, i := range order {
		p := photos[i]
		if _, dup := byName[p.Name]; dup {
			return nil, fmt.Errorf("core: photo name %q appears twice in the set", p.Name)
		}
		items[id] = scheduler.Item{ID: id, Name: p.Name, Size: int64(len(p.Data))}
		byName[p.Name] = p.Data
	}
	source := func(item scheduler.Item) (io.ReadCloser, error) {
		b, ok := byName[item.Name]
		if !ok {
			return nil, fmt.Errorf("core: unknown photo %q", item.Name)
		}
		return photoReader{bytes.NewReader(b)}, nil
	}

	// The session's clients each own a fresh transport; release their
	// pooled connections (and the goroutines serving them) on return.
	adsl := h.ADSLClient()
	defer adsl.CloseIdleConnections()
	paths := []scheduler.Path{
		&transfer.UploadPath{
			PathName: "adsl", Client: adsl, TargetURL: opts.TargetURL, Source: source,
		},
	}
	for _, ph := range opts.Phones {
		c := h.PhoneClient(ph)
		defer c.CloseIdleConnections()
		paths = append(paths, &transfer.UploadPath{
			PathName: ph.Name, Client: c, TargetURL: opts.TargetURL, Source: source,
		})
	}

	rep, err := scheduler.Run(ctx, opts.Algo, items, paths, scheduler.Options{
		MinAlpha:           opts.MinAlpha,
		DisableDuplication: opts.DisableDuplication,
	})
	if err != nil {
		if ie := (*scheduler.ItemError)(nil); errors.As(err, &ie) {
			ie.ItemID = order[ie.ItemID]
		}
		return nil, fmt.Errorf("core: upload transaction: %w", err)
	}
	done := make([]time.Duration, len(photos))
	for id, i := range order {
		done[i] = rep.ItemDone[id]
	}
	rep.ItemDone = done
	return &UploadResult{
		Elapsed:         h.ScaleDuration(rep.Elapsed),
		Bytes:           TotalBytes(photos),
		SchedulerReport: rep,
	}, nil
}

// photoReader is a photo's content as the upload paths read it:
// seekable, so that a piece of the photo starts at its offset.
type photoReader struct{ *bytes.Reader }

func (photoReader) Close() error { return nil }

// uploadOrder is the order UploadPhotos offers photos to the scheduler:
// their indices longest-first, stable on ties.
func uploadOrder(photos []Photo) []int {
	order := make([]int, len(photos))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return len(photos[b].Data) - len(photos[a].Data) })
	return order
}

// BaselineUpload uploads the set sequentially over ADSL alone — the
// native-client baseline the paper compares against. It sends the photos
// longest-first, as UploadPhotos does; one path's total does not depend
// on the order.
func (h *Home) BaselineUpload(ctx context.Context, photos []Photo, targetURL string) (*UploadResult, error) {
	res, err := h.UploadPhotos(ctx, photos, UploadOptions{
		Algo:      scheduler.RoundRobin, // single path: the offered order
		TargetURL: targetURL,
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
