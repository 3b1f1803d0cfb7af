package permitplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"threegol/internal/obs"
	"threegol/internal/permit"
	"threegol/internal/permitplane/wal"
)

// testUtil is a deterministic monitoring hook: cells named "hot-*" are
// congested, everything else is idle.
func testUtil(cellID string) float64 {
	if strings.HasPrefix(cellID, "hot-") {
		return 0.95
	}
	return 0.1
}

func postBatch(t *testing.T, url string, reqs []PermitRequest) (*http.Response, BatchResponse) {
	t.Helper()
	body, err := json.Marshal(BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/permits/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestShardedBatchDecidesInRequestOrder(t *testing.T) {
	s := New(Config{Shards: 4, Utilization: testUtil, Clock: &fakeClock{}})
	srv := httptest.NewServer(s)
	defer srv.Close()

	var reqs []PermitRequest
	for i := 0; i < 64; i++ {
		cell := fmt.Sprintf("cell-%d", i)
		if i%3 == 0 {
			cell = fmt.Sprintf("hot-%d", i)
		}
		reqs = append(reqs, PermitRequest{Device: fmt.Sprintf("d%d", i), Cell: cell})
	}
	resp, out := postBatch(t, srv.URL, reqs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch returned %s", resp.Status)
	}
	if len(out.Decisions) != len(reqs) {
		t.Fatalf("%d decisions for %d requests", len(out.Decisions), len(reqs))
	}
	for i, d := range out.Decisions {
		wantGrant := !strings.HasPrefix(reqs[i].Cell, "hot-")
		if d.Granted != wantGrant {
			t.Errorf("request %d (%s): granted=%v, want %v", i, reqs[i].Cell, d.Granted, wantGrant)
		}
	}
	grants, denials := s.Stats()
	if int(grants+denials) != len(reqs) {
		t.Errorf("stats %d+%d, want %d decisions", grants, denials, len(reqs))
	}
}

func TestShardedRejectsBadBatches(t *testing.T) {
	s := New(Config{Shards: 2, Utilization: testUtil, Clock: &fakeClock{}})
	srv := httptest.NewServer(s)
	defer srv.Close()

	if resp, _ := postBatch(t, srv.URL, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: %s, want 400", resp.Status)
	}
	if resp, _ := postBatch(t, srv.URL, []PermitRequest{{Device: "d"}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing cell: %s, want 400", resp.Status)
	}
	over := make([]PermitRequest, MaxBatch+1)
	for i := range over {
		over[i] = PermitRequest{Device: "d", Cell: "c"}
	}
	if resp, _ := postBatch(t, srv.URL, over); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize batch: %s, want 413", resp.Status)
	}
	get, err := http.Get(srv.URL + "/permits/batch")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch: %s, want 405", get.Status)
	}
	// Decisions must be unaffected by the rejected batches.
	if g, d := s.Stats(); g != 0 || d != 0 {
		t.Errorf("rejected batches made decisions: grants=%d denials=%d", g, d)
	}
}

// TestShardedRejectsOversizedIDs pins the HTTP edge guard: a device or
// cell longer than the WAL can frame is a 400 on both transports, not
// a granted-but-untrackable permit.
func TestShardedRejectsOversizedIDs(t *testing.T) {
	s := New(Config{Shards: 2, Utilization: testUtil, Clock: &fakeClock{}})
	srv := httptest.NewServer(s)
	defer srv.Close()

	huge := strings.Repeat("x", wal.MaxIDLen+1)
	for _, q := range []string{"cell=c&device=" + huge, "cell=" + huge + "&device=d"} {
		resp, err := http.Get(srv.URL + "/permit?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("oversized ID on GET /permit: %s, want 400", resp.Status)
		}
	}
	if resp, _ := postBatch(t, srv.URL, []PermitRequest{{Device: huge, Cell: "c"}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized device in batch: %s, want 400", resp.Status)
	}
	if resp, _ := postBatch(t, srv.URL, []PermitRequest{{Device: "d", Cell: huge}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized cell in batch: %s, want 400", resp.Status)
	}
	if g, d := s.Stats(); g != 0 || d != 0 {
		t.Errorf("rejected requests made decisions: grants=%d denials=%d", g, d)
	}
}

// FuzzPermitQuery feeds fuzzed device and cell IDs to GET /permit on a
// durable plane. No answer is a 5xx. A missing cell, or an ID over
// wal.MaxIDLen, is a 400 that records nothing: no decision counted, no
// WAL record. Anything else is a 200 carrying a permit.Response — the
// hook's verdict on the cell — and one decision more; a grant to a
// named device advances its shard's WAL. A missing device is decided
// (and not tracked), as in a batch. The seed corpus
// (testdata/fuzz/FuzzPermitQuery) has ordinary, hot, empty and escaped
// IDs; the IDs at and one past the bound are built here.
func FuzzPermitQuery(f *testing.F) {
	long := strings.Repeat("x", wal.MaxIDLen)
	for _, q := range [][2]string{{long, "c"}, {"d", long}, {long + "x", "c"}, {"d", long + "x"}} {
		f.Add(q[0], q[1])
	}
	clk := &fakeClock{}
	s, err := NewDurable(Config{Shards: 4, TTL: time.Minute, Utilization: testUtil, Clock: clk, WALDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Close() })
	f.Fuzz(func(t *testing.T, device, cell string) {
		clk.advance(time.Minute) // earlier grants lapse: the store stays small
		sh := s.shardFor(cell)
		grants, denials := s.Stats()
		seqs := make([]uint64, len(s.shards))
		for i, sh := range s.shards {
			seqs[i] = sh.store.Seq()
		}
		rec := httptest.NewRecorder()
		q := url.Values{"device": {device}, "cell": {cell}}
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/permit?"+q.Encode(), nil))

		g, d := s.Stats()
		if cell == "" || len(cell) > wal.MaxIDLen || len(device) > wal.MaxIDLen {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("device %q cell %q: %d, want 400", device, cell, rec.Code)
			}
			if g != grants || d != denials {
				t.Fatalf("device %q cell %q: a 400 counted %d grants and %d denials", device, cell, g-grants, d-denials)
			}
			for i, sh := range s.shards {
				if seq := sh.store.Seq(); seq != seqs[i] {
					t.Fatalf("device %q cell %q: a 400 moved shard %d's WAL from %d to %d", device, cell, i, seqs[i], seq)
				}
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("device %q cell %q: %d %q, want 200", device, cell, rec.Code, rec.Body.String())
		}
		var resp permit.Response
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("device %q cell %q: body %q is no permit.Response: %v", device, cell, rec.Body.String(), err)
		}
		util := testUtil(cell)
		want := permit.Response{Granted: util < permit.DefaultThreshold, Utilization: util}
		if want.Granted {
			want.TTLSeconds = time.Minute.Seconds()
		}
		if resp != want {
			t.Fatalf("device %q cell %q: %+v, want %+v", device, cell, resp, want)
		}
		if g+d != grants+denials+1 {
			t.Fatalf("device %q cell %q: a 200 counted %d decisions, want 1", device, cell, g+d-grants-denials)
		}
		if resp.Granted && device != "" && sh.store.Seq() <= seqs[sh.index] {
			t.Fatalf("device %q cell %q: a grant left its shard's WAL at %d", device, cell, seqs[sh.index])
		}
	})
}

// TestShardedWithoutHookFailsRequests pins the misconfigured plane: with
// no monitoring hook both routes answer 500. A batch used to call the nil
// hook on a shard goroutine, and that panic took the process down.
func TestShardedWithoutHookFailsRequests(t *testing.T) {
	s := New(Config{Shards: 2, Clock: &fakeClock{}})
	srv := httptest.NewServer(s)
	defer srv.Close()

	if resp, _ := postBatch(t, srv.URL, []PermitRequest{{Device: "d", Cell: "c"}}); resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("batch without a monitoring hook: %s, want 500", resp.Status)
	}
	resp, err := http.Get(srv.URL + "/permit?device=d&cell=c")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("GET /permit without a monitoring hook: %s, want 500", resp.Status)
	}
}

// TestDecisionCountsAgree pins the one decision count: whatever the
// transport and the shard count, Stats, the per-shard Status split and
// the merged permit_decisions_total series report the same grants and
// denials.
func TestDecisionCountsAgree(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := New(Config{Shards: shards, Utilization: testUtil, Clock: &fakeClock{}})
		srv := httptest.NewServer(s)

		var wantG, wantD int64
		var batch []PermitRequest
		for i := 0; i < 30; i++ {
			cell := fmt.Sprintf("cell-%d", i)
			if i%3 == 0 {
				cell = fmt.Sprintf("hot-%d", i)
			}
			resp, err := http.Get(fmt.Sprintf("%s/permit?device=g%d&cell=%s", srv.URL, i, cell))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			s.DecideDevice(context.Background(), fmt.Sprintf("e%d", i), cell)
			batch = append(batch, PermitRequest{Device: fmt.Sprintf("b%d", i), Cell: cell})
			if strings.HasPrefix(cell, "hot-") {
				wantD += 3
			} else {
				wantG += 3
			}
		}
		if resp, _ := postBatch(t, srv.URL, batch); resp.StatusCode != http.StatusOK {
			t.Fatalf("%d shards: batch returned %s", shards, resp.Status)
		}
		srv.Close()

		if g, d := s.Stats(); g != wantG || d != wantD {
			t.Errorf("%d shards: Stats = %d/%d, want %d/%d", shards, g, d, wantG, wantD)
		}
		var statusG, statusD int64
		for _, st := range s.Status() {
			statusG += st.Grants
			statusD += st.Denials
		}
		if statusG != wantG || statusD != wantD {
			t.Errorf("%d shards: Status sums = %d/%d, want %d/%d", shards, statusG, statusD, wantG, wantD)
		}
		merged := obs.NewRegistry()
		pm := permit.NewMetrics(merged)
		NewMetrics(merged)
		s.MergeInto(merged)
		if g, d := pm.Counts(); g != wantG || d != wantD {
			t.Errorf("%d shards: merged permit_decisions_total = %d/%d, want %d/%d", shards, g, d, wantG, wantD)
		}
	}
}

func TestShardedRoutesSinglePermit(t *testing.T) {
	s := New(Config{Shards: 4, Utilization: testUtil, Clock: &fakeClock{}})
	srv := httptest.NewServer(s)
	defer srv.Close()

	get := func(device, cell string) permit.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + "/permit?device=" + device + "&cell=" + cell)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out permit.Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("GET /permit: %s: %v", resp.Status, err)
		}
		return out
	}
	if !get("d0", "cell-0").Granted {
		t.Error("idle cell denied through the router")
	}
	if get("d1", "hot-0").Granted {
		t.Error("congested cell granted through the router")
	}
}

// TestMergedMetricsByteIdenticalAcrossShardCounts is the tentpole's
// merge guarantee: the same request history served by 1, 4 or 16 shards
// must produce byte-for-byte identical merged /debug/metrics dumps.
func TestMergedMetricsByteIdenticalAcrossShardCounts(t *testing.T) {
	drive := func(shards int) []byte {
		s := New(Config{Shards: shards, Utilization: testUtil, Clock: &fakeClock{}})
		srv := httptest.NewServer(s)
		defer srv.Close()

		// Singles.
		for i := 0; i < 20; i++ {
			resp, err := http.Get(fmt.Sprintf("%s/permit?device=d%d&cell=cell-%d", srv.URL, i, i))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		// Batches, mixing granted and denied cells.
		for b := 0; b < 4; b++ {
			var reqs []PermitRequest
			for i := 0; i < 50; i++ {
				cell := fmt.Sprintf("cell-%d", b*50+i)
				if i%5 == 0 {
					cell = fmt.Sprintf("hot-%d", b*50+i)
				}
				reqs = append(reqs, PermitRequest{Device: fmt.Sprintf("d%d", i), Cell: cell})
			}
			if resp, _ := postBatch(t, srv.URL, reqs); resp.StatusCode != http.StatusOK {
				t.Fatalf("batch failed: %s", resp.Status)
			}
		}
		// One rejected batch, so error counters merge too.
		if resp, _ := postBatch(t, srv.URL, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatal("empty batch accepted")
		}

		rec := httptest.NewRecorder()
		s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/metrics", nil))
		return rec.Body.Bytes()
	}

	base := drive(1)
	if !bytes.Contains(base, []byte("permit_decisions_total")) {
		t.Fatalf("merged dump is missing permit decision counters:\n%s", base)
	}
	for _, shards := range []int{4, 16} {
		got := drive(shards)
		if !bytes.Equal(base, got) {
			t.Errorf("merged metrics for %d shards differ from 1 shard:\n--- 1 shard ---\n%s\n--- %d shards ---\n%s",
				shards, base, shards, got)
		}
	}
}

func TestShardedStatusSplitsByShard(t *testing.T) {
	s := New(Config{Shards: 4, Utilization: testUtil, Clock: &fakeClock{}})
	for i := 0; i < 100; i++ {
		s.DecideDevice(context.Background(), "", fmt.Sprintf("cell-%d", i))
	}
	status := s.Status()
	if len(status) != 4 {
		t.Fatalf("%d shard statuses, want 4", len(status))
	}
	var total int64
	busy := 0
	for i, st := range status {
		if st.Shard != i {
			t.Errorf("status %d reports shard %d", i, st.Shard)
		}
		total += st.Grants + st.Denials
		if st.Grants+st.Denials > 0 {
			busy++
		}
	}
	if total != 100 {
		t.Errorf("shard statuses sum to %d decisions, want 100", total)
	}
	if busy < 2 {
		t.Errorf("only %d of 4 shards made decisions; hash not spreading", busy)
	}

	rec := httptest.NewRecorder()
	s.StatusHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/shards", nil))
	var decoded []ShardStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("decoding /debug/shards: %v", err)
	}
	if len(decoded) != 4 {
		t.Errorf("/debug/shards returned %d entries, want 4", len(decoded))
	}
}

func TestShardedDenyUnknownFailsClosed(t *testing.T) {
	tbl := NewUtilTable(0, true)
	tbl.Set("known", 0.1)
	s := New(Config{Shards: 4, Utilization: tbl.Get, Clock: &fakeClock{}})

	if d := s.DecideDevice(context.Background(), "", "known"); !d.Granted {
		t.Error("known idle cell denied")
	}
	if d := s.DecideDevice(context.Background(), "", "never-in-feed"); d.Granted {
		t.Error("cell absent from the feed granted despite -deny-unknown")
	}
}

func TestBatchClientAgainstShardedBackend(t *testing.T) {
	s := New(Config{Shards: 4, Utilization: testUtil, Clock: &fakeClock{}})
	srv := httptest.NewServer(s)
	defer srv.Close()

	c := &BatchClient{BackendURL: srv.URL}
	resp, err := c.Fetch(context.Background(), "d0", "cell-0")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Granted {
		t.Error("idle cell denied via BatchClient.Fetch")
	}
}

// TestBatchAndGetWiresAgreeOnEscapedIDs pins the IDs on both wires: a
// device or cell ID holding a query metacharacter must land in the store
// under the same grant key whether it rode the batch body or a GET
// /permit query string escaped with url.QueryEscape (unescaped, "&",
// "#", "+" and " " cut the ID short or turned it into another).
func TestBatchAndGetWiresAgreeOnEscapedIDs(t *testing.T) {
	ids := []string{"a&b", "a#b", "a+b", "a b", "a%26b", "a=b?c/d"}
	for _, viaGET := range []bool{false, true} {
		s := New(Config{Shards: 4, Utilization: testUtil, Clock: &fakeClock{}})
		srv := httptest.NewServer(s)
		var reqs []PermitRequest
		for _, id := range ids {
			reqs = append(reqs, PermitRequest{Device: "dev-" + id, Cell: "cell-" + id})
		}
		var out []permit.Response
		var err error
		if viaGET {
			out, err = getEach(srv.URL, reqs)
		} else {
			out, err = (&BatchClient{BackendURL: srv.URL}).Batch(context.Background(), reqs)
		}
		srv.Close()
		if err != nil || len(out) != len(reqs) {
			t.Fatalf("viaGET=%t: %d decisions, err %v", viaGET, len(out), err)
		}
		for _, pr := range reqs {
			st := s.shardFor(pr.Cell).store
			st.mu.Lock()
			_, held := st.state.Grants[wal.Key(pr.Device, pr.Cell)]
			st.mu.Unlock()
			if !held {
				t.Errorf("viaGET=%t: no grant under (%q, %q) in the cell's shard", viaGET, pr.Device, pr.Cell)
			}
		}
		if got := func() (n int) {
			for _, st := range s.Status() {
				n += st.Outstanding
			}
			return n
		}(); got != len(reqs) {
			t.Errorf("viaGET=%t: %d grants outstanding, want %d — an ID was recorded under another key", viaGET, got, len(reqs))
		}
	}
}

// getEach asks GET /permit once per request, escaping the IDs into the
// query string.
func getEach(backendURL string, reqs []PermitRequest) ([]permit.Response, error) {
	out := make([]permit.Response, len(reqs))
	for i, pr := range reqs {
		resp, err := http.Get(fmt.Sprintf("%s/permit?device=%s&cell=%s", backendURL,
			url.QueryEscape(pr.Device), url.QueryEscape(pr.Cell)))
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i])
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("GET /permit: %s: %w", resp.Status, err)
		}
	}
	return out, nil
}
