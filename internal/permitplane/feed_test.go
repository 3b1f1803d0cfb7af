package permitplane

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"threegol/internal/permit"
)

// nonFiniteFeed names cells with every utilisation strconv parses to a
// NaN or an infinity, beside two well-formed lines.
const nonFiniteFeed = "cell-nan NaN\ncell-inf Inf\ncell-pinf +Inf\ncell-ninf -Inf\ncell-word infinity\ncell-ok 0.2\ncell-full 0.9\n"

// TestReadFeedSkipsNonFiniteUtilisation pins what a NaN or an infinity
// in the feed does: it is a malformed line, so its cell stays unknown
// and a batch naming it is decided like any other — not a 500 that
// refuses every device of the batch because no JSON holds a NaN.
func TestReadFeedSkipsNonFiniteUtilisation(t *testing.T) {
	tbl := NewUtilTable(0.1, false)
	var logged []string
	if err := ReadFeed(strings.NewReader(nonFiniteFeed), tbl, func(f string, a ...any) { logged = append(logged, f) }); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 || len(logged) != 6 { // five malformed lines + the summary
		t.Errorf("table holds %d cells and %d lines were logged, want 2 and 6", tbl.Len(), len(logged))
	}

	s := New(Config{Shards: 2, Utilization: tbl.Get, Clock: &fakeClock{}})
	reqs := []PermitRequest{{Device: "d0", Cell: "cell-nan"}, {Device: "d1", Cell: "cell-ok"},
		{Device: "d2", Cell: "cell-pinf"}, {Device: "d3", Cell: "cell-full"}}
	want := []bool{true, true, true, false} // unknown cells take the fallback 0.1
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/permits/batch", bytes.NewReader(appendBatchRequest(nil, reqs))))
	var out BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != http.StatusOK || err != nil || len(out.Decisions) != len(reqs) {
		t.Fatalf("batch answered %d %q (decode err %v)", rec.Code, rec.Body.String(), err)
	}
	for i, d := range out.Decisions {
		if d.Granted != want[i] {
			t.Errorf("%s in %s: granted=%t, want %t", reqs[i].Device, reqs[i].Cell, d.Granted, want[i])
		}
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/permit?device=d0&cell=cell-inf", nil))
	var single permit.Response
	if err := json.Unmarshal(rec.Body.Bytes(), &single); rec.Code != http.StatusOK || err != nil {
		t.Errorf("GET /permit answered %d %q (decode err %v)", rec.Code, rec.Body.String(), err)
	}
}

// TestReadFeedSkipsOverlongLine pins what a line too long to buffer does:
// it is a malformed line, skipped, and the feed goes on — the cells after
// it are learnt.
func TestReadFeedSkipsOverlongLine(t *testing.T) {
	tbl := NewUtilTable(0, false)
	var logged []string
	feed := "cell-a 0.2\n" + strings.Repeat("x", 70000) + "\ncell-z 0.3\n"
	if err := ReadFeed(strings.NewReader(feed), tbl, func(f string, a ...any) { logged = append(logged, f) }); err != nil {
		t.Fatalf("ReadFeed: %v", err)
	}
	if tbl.Len() != 2 || tbl.Get("cell-z") != 0.3 {
		t.Errorf("table holds %d cells, cell-z = %v; want 2 and 0.3", tbl.Len(), tbl.Get("cell-z"))
	}
	if len(logged) != 2 { // the overlong line + the summary
		t.Errorf("logged %d lines, want 2: %q", len(logged), logged)
	}
}

// referenceFeed is the line-by-line parse ReadFeed must agree with: split
// at newlines, skip a line of maxFeedLine bytes or more, keep the last
// finite non-negative value of each well-formed "cell utilisation" pair.
func referenceFeed(data []byte) map[string]float64 {
	want := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if len(line) >= maxFeedLine {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		u, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || u < 0 || math.IsNaN(u) || math.IsInf(u, 0) {
			continue
		}
		want[fields[0]] = u
	}
	return want
}

// FuzzFeed holds ReadFeed to referenceFeed on arbitrary bytes: it never
// panics or fails on a reader that does not, every value it stores is
// finite and ≥ 0, and the table it fills is the reference's. The seed
// corpus (testdata/fuzz/FuzzFeed) has well-formed feeds, NaN and
// infinities, a line over the bound between two good ones, CRLF line
// ends and garbage.
func FuzzFeed(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl := NewUtilTable(0, false)
		if err := ReadFeed(bytes.NewReader(data), tbl, nil); err != nil {
			t.Fatalf("ReadFeed: %v", err)
		}
		for cell, u := range tbl.util {
			if u < 0 || math.IsNaN(u) || math.IsInf(u, 0) {
				t.Fatalf("cell %q stored utilisation %v", cell, u)
			}
		}
		if want := referenceFeed(data); !reflect.DeepEqual(tbl.util, want) {
			t.Fatalf("feed %q fills the table with\n%v\nthe reference parse with\n%v", data, tbl.util, want)
		}
	})
}
