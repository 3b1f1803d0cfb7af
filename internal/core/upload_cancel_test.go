package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"threegol/internal/scheduler"
	"threegol/internal/transfer"
	"threegol/internal/upload"
)

// countedBody counts the request-body bytes an upload server's handler
// has read, and calls at once when they first reach mark.
type countedBody struct {
	io.ReadCloser
	received *atomic.Int64
	mark     int64
	at       func()
}

func (b countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if total := b.received.Add(int64(n)); total >= b.mark && total-int64(n) < b.mark {
		b.at()
	}
	return n, err
}

// A cancelled upload stops at the link: a phone path holds a bounded
// number of bytes between the client's progress counter and the upload
// server, so a replica cancelled a tenth of the way in delivers at most
// that much more — never the rest of the photo — nothing is stored, and
// the phone's byte count and quota, which charge the body as the 3G
// transport reads it, cover what the server got and stop moving. With
// loopback's autotuned socket buffers the whole photo was "sent" within
// milliseconds and the device proxy went on to upload a complete, valid
// request over the phone's uplink after the cancel.
func TestCancelledUploadStopsAtTheLink(t *testing.T) {
	// What the path can hold: two hops (Wi-Fi, HSPA), two sockets each,
	// the kernel reserving about twice netem's 64 KB upstream buffer per
	// socket — plus the copy and bufio buffers of the two HTTP stacks in
	// between.
	const bound = 2*2*2*64<<10 + 128<<10
	const size = 4 << 20 // several bounds, so "the rest of the photo" is unmistakable

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		sent, received             atomic.Int64
		sentAtCancel, recvAtCancel atomic.Int64
	)
	store := &upload.Server{}
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = countedBody{r.Body, &received, size / 10, func() {
			sentAtCancel.Store(sent.Load())
			recvAtCancel.Store(received.Load())
			cancel()
		}}
		store.ServeHTTP(w, r)
	}))
	defer target.Close()

	h := testHome(t, PhoneConfig{Name: "ph1", Down: 2e6, Up: 1.5e6, Warm: true, DailyQuotaBytes: 1 << 30})
	phones := h.AdmissibleDevices(1, 5*time.Second)
	if len(phones) != 1 {
		t.Fatal("phone not discovered")
	}
	ph := phones[0]
	client := h.PhoneClient(ph)
	defer client.CloseIdleConnections()
	photo := make([]byte, size)
	path := &transfer.UploadPath{
		PathName: ph.Name, Client: client, TargetURL: target.URL,
		Source: func(scheduler.Item) (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(photo)), nil
		},
	}

	_, err := path.TransferProgress(ctx, scheduler.Item{Name: "IMG_0001.jpg", Size: size}, func(n int64) { sent.Store(n) })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled upload returned %v, want context.Canceled", err)
	}
	if recvAtCancel.Load() == 0 {
		t.Fatal("the upload ended before the server had a tenth of it")
	}
	// Let whatever was in flight drain: the link is quiet once the
	// server's count has stood still for a while.
	for last, still := int64(-1), 0; still < 10; {
		time.Sleep(30 * time.Millisecond)
		if now := received.Load(); now == last {
			still++
		} else {
			last, still = now, 0
		}
	}

	if lead := sentAtCancel.Load() - recvAtCancel.Load(); lead > bound {
		t.Errorf("at the cancel the client had reported %d bytes sent and the server had read %d: %d in flight, bound %d",
			sentAtCancel.Load(), recvAtCancel.Load(), lead, bound)
	}
	if after := received.Load() - recvAtCancel.Load(); after > bound {
		t.Errorf("server read %d bytes after the cancel (%d of %d in all), bound %d", after, received.Load(), size, bound)
	}
	if files := store.Files(); len(files) != 0 {
		t.Errorf("server stored %d file(s) from a cancelled upload: %+v", len(files), files)
	}
	// The phone stops working for the cancelled request: once the link
	// is quiet its byte count and its quota stand still.
	proxied, left := ph.Device.Proxy.BytesTotal(), ph.Device.quota.Available()
	charged := 1<<30 - left
	time.Sleep(200 * time.Millisecond)
	if p, a := ph.Device.Proxy.BytesTotal(), ph.Device.quota.Available(); p != proxied || a != left {
		t.Errorf("phone kept working after the cancel: proxy bytes %d → %d, quota left %d → %d", proxied, p, left, a)
	}
	// The multipart body declares its length, but the request failed
	// part-way: the phone is charged every byte its uplink carried, not
	// the declared length — what the server read, plus at most what the
	// 3G hop's two sockets and the transport's copy buffer hold.
	const hopBound = 2*2*64<<10 + 64<<10
	if got := received.Load(); proxied != charged || proxied < got || proxied > got+hopBound {
		t.Errorf("server read %d bytes of the cancelled upload; the phone counted %d and charged its quota %d, want both the same and within [%d, %d]",
			got, proxied, charged, got, got+hopBound)
	}
	t.Logf("at cancel: sent %d, received %d; received after cancel: %d (bound %d); phone counted %d",
		sentAtCancel.Load(), recvAtCancel.Load(), received.Load()-recvAtCancel.Load(), bound, proxied)
}
