package permitplane

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"threegol/internal/permit"
)

// discardResponse is the cheapest ResponseWriter: what the handler
// itself allocates is what is measured.
type discardResponse struct {
	header http.Header
	status int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(status int)      { d.status = status }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// allocatedPer runs op n times after warm warm-up runs and reports the
// bytes allocated per run.
func allocatedPer(warm, n int, op func()) float64 {
	for i := 0; i < warm; i++ {
		op()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// TestServeBatchAllocBudget is the ratchet behind the batch path's
// buffers: a warmed 512-request batch through a durable 4-shard plane
// allocates under 150 KB in the handler (380 KB in 6 403 allocations
// when every batch was decoded by reflection into fresh slices and
// every record framed into its own), and a BatchClient round trip over
// loopback — client, transport, server and handler — under 250 KB.
func TestServeBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector (and sync.Pool drops at random)")
	}
	s, err := NewDurable(Config{Shards: 4, TTL: time.Second, Utilization: testUtil, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reqs := make([]PermitRequest, 512)
	for i := range reqs {
		cell := fmt.Sprintf("cell-%03d", i%256)
		if i%2 == 1 {
			cell = fmt.Sprintf("hot-%03d", i%256)
		}
		reqs[i] = PermitRequest{Device: fmt.Sprintf("dev-%06d", i), Cell: cell}
	}
	body := appendBatchRequest(nil, reqs)

	w := &discardResponse{header: make(http.Header)}
	handler := allocatedPer(50, 200, func() {
		req, err := http.NewRequest(http.MethodPost, "/permits/batch", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		w.status = http.StatusOK
		s.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("batch answered %d", w.status)
		}
	})
	t.Logf("%.1f KB allocated per batch in the handler", handler/1e3)
	if handler >= 150e3 {
		t.Errorf("%.1f KB allocated per batch in the handler, budget 150 KB", handler/1e3)
	}

	srv := httptest.NewServer(s)
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &BatchClient{BackendURL: srv.URL, HTTPClient: &http.Client{Transport: tr}}
	trip := allocatedPer(50, 200, func() {
		out, err := c.Batch(context.Background(), reqs)
		if err != nil || len(out) != len(reqs) {
			t.Fatalf("%d decisions, err %v", len(out), err)
		}
	})
	t.Logf("%.1f KB allocated per round trip", trip/1e3)
	if trip >= 250e3 {
		t.Errorf("%.1f KB allocated per round trip, budget 250 KB", trip/1e3)
	}
}

// TestRecordDecisionsAllocFree pins what one decision costs the grant
// store: a lookup of its grant and an update in place. A warmed
// 128-decision slice — 64 refreshes of held grants on a clock that has
// moved, so every one changes bucket, and 64 denials of devices holding
// nothing — allocates nothing through a durable store; a first grant
// allocates its key and its *Grant, and nothing else.
func TestRecordDecisionsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	clk := storeClock()
	s, err := OpenGrantStore(t.TempDir(), clk, Metrics{}, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reqs := make([]PermitRequest, 128)
	resps := make([]permit.Response, len(reqs))
	indices := make([]int, len(reqs))
	for i := range reqs {
		reqs[i] = PermitRequest{Device: fmt.Sprintf("dev-%03d", i), Cell: fmt.Sprintf("cell-%d", i%2)}
		resps[i] = permit.Response{Granted: i%2 == 0, TTLSeconds: 180}
		indices[i] = i
	}
	slice := func() {
		clk.advance(time.Millisecond)
		s.RecordDecisions(reqs, resps, indices)
	}
	slice() // the first grants
	if allocs := testing.AllocsPerRun(100, slice); allocs != 0 {
		t.Errorf("a refresh-and-deny slice of %d decisions allocates %.1f times, want 0", len(reqs), allocs)
	}

	fresh := make([]string, 101)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("new-%03d", i)
	}
	n := 0
	first := func() {
		s.RecordDecision(fresh[n], "cell-0", true, 180)
		n++
	}
	if allocs := testing.AllocsPerRun(100, first); allocs != 2 {
		t.Errorf("a first grant allocates %.1f times, want 2 (its key and its *Grant)", allocs)
	}
}

// The zero Metrics is how a grant store runs uninstrumented, so a WAL
// append recorded through it must cost no allocation.
func TestZeroMetricsAllocFree(t *testing.T) {
	var m Metrics
	if allocs := testing.AllocsPerRun(100, func() { m.WALRecords.With("grant").Add(3) }); allocs != 0 {
		t.Errorf("a WAL append through the zero Metrics allocates %.1f times, want 0", allocs)
	}
}
