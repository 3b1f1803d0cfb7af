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

// budgetBatch is the 512-request batch the budgets are measured on: 512
// devices over 256 cells, half of them hot.
func budgetBatch() []PermitRequest {
	reqs := make([]PermitRequest, 512)
	for i := range reqs {
		cell := fmt.Sprintf("cell-%03d", i%256)
		if i%2 == 1 {
			cell = fmt.Sprintf("hot-%03d", i%256)
		}
		reqs[i] = PermitRequest{Device: fmt.Sprintf("dev-%06d", i), Cell: cell}
	}
	return reqs
}

// TestParseBatchRequestAllocFree pins the server's parse: a 512-request
// body decodes into the slice the last one grew, devices in place and
// cells from a warmed table, without allocating — where a string per ID
// was 1 024 allocations.
func TestParseBatchRequestAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	body := appendBatchRequest(nil, budgetBatch())
	var cells cellTable
	into, _ := parseBatchRequest(body, nil, &cells)
	parse := func() {
		if reqs, ok := parseBatchRequest(body, into, &cells); !ok || len(reqs) != 512 {
			t.Fatalf("parsed %d requests, ok=%t", len(reqs), ok)
		}
	}
	if allocs := testing.AllocsPerRun(100, parse); allocs != 0 {
		t.Errorf("a warmed parse of a 512-request body allocates %.1f times, want 0", allocs)
	}
}

// TestServeBatchAllocBudget is the ratchet behind the batch path's
// buffers: a warmed 512-request batch through a durable 4-shard plane
// allocates under 8 KB in the handler (1.7 KB measured with IDs read in
// place and cells from the scratch's table; 13.9 KB when the parse made
// a string of every ID, 380 KB in 6 403 allocations when every batch
// was decoded by reflection into fresh slices and every record framed
// into its own), and a BatchClient round trip over loopback — client,
// transport, server and handler — under 100 KB (45 KB measured, most of
// it the client's: net/http's copy buffer for the request body and the
// decisions slice Batch returns).
func TestServeBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector (and sync.Pool drops at random)")
	}
	s, err := NewDurable(Config{Shards: 4, TTL: time.Second, Utilization: testUtil, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reqs := budgetBatch()
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
	if handler >= 8e3 {
		t.Errorf("%.1f KB allocated per batch in the handler, budget 8 KB", handler/1e3)
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
	if trip >= 100e3 {
		t.Errorf("%.1f KB allocated per round trip, budget 100 KB", trip/1e3)
	}
}

// TestRecordDecisionsAllocFree pins what one decision costs the grant
// store: a lookup of its grant, keyed on the stack, and an update in
// place. A warmed 128-decision slice in the handler's form — devices as
// bytes, 64 refreshes of held grants on a clock that has moved, so every
// one changes bucket, and 64 denials of devices holding nothing —
// allocates nothing through a durable store; a first grant allocates its
// key, its device string and its *Grant, and nothing else. (RecordDecision,
// GET /permit's path, adds one: its device string's bytes.)
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
	reqs := make([]serverRequest, 128)
	resps := make([]permit.Response, len(reqs))
	indices := make([]int, len(reqs))
	for i := range reqs {
		reqs[i] = serverRequest{device: fmt.Appendf(nil, "dev-%03d", i), cell: fmt.Sprintf("cell-%d", i%2)}
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

	fresh := make([]serverRequest, 101)
	for i := range fresh {
		fresh[i] = serverRequest{device: fmt.Appendf(nil, "new-%03d", i), cell: "cell-0"}
	}
	n := 0
	first := func() {
		s.RecordDecisions(fresh[n:n+1], resps[:1], indices[:1]) // granted
		n++
	}
	if allocs := testing.AllocsPerRun(100, first); allocs != 3 {
		t.Errorf("a first grant allocates %.1f times, want 3 (its key, its device string and its *Grant)", allocs)
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
