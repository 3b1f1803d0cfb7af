package permitplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"threegol/internal/permit"
)

// TestCodecWritesEncodingJSONBytes pins the wire: what the append
// encoders write is byte for byte what encoding/json writes for the
// plain structs.
func TestCodecWritesEncodingJSONBytes(t *testing.T) {
	requests := [][]PermitRequest{
		nil,
		{},
		{{Device: "dev-000001", Cell: "cell-001"}},
		{{Device: "", Cell: ""}, {Device: "d", Cell: "bs0/s1"}},
		{{Device: `a"b\c`, Cell: "tab\there"}, {Device: "<&>", Cell: "line\nfeed"}},
		{{Device: "zero\x00one\x1f", Cell: "del\x7f"}, {Device: "café   ", Cell: "bad\xffutf8"}},
		{{Device: "a b+c#d&e=f", Cell: "\b\f\r"}},
	}
	for _, reqs := range requests {
		want, err := json.Marshal(plainBatchRequest{Requests: reqs})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendBatchRequest(nil, reqs); !bytes.Equal(got, want) {
			t.Errorf("request encoder wrote\n%s\nencoding/json\n%s", got, want)
		}
	}

	floats := []float64{0, 1, -1, 0.2, 180, 0.95, 1e-6, 9.99e-7, 1e-7, 5e-324, 1e20, 1e21, 1.5e21, 1.7976931348623157e308,
		-1e-9, -1e21, 123456789.125, 1.0 / 3, math.Copysign(0, -1), 100000000000000000000, 1e-10, 1.5e-10, 1e100,
		999999999999999, -999999999999999, 1e15, -1e15, 9007199254740993, 999999999999999.9, -3,
		0.000001, 123456.789, 1.000001, 1125899906842.624, 0.1234567}
	// Decimals of every length, and arbitrary floats, across the decimal
	// fast paths' range.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		floats = append(floats, float64(rng.Int63n(1<<53))/pow10[rng.Intn(len(pow10))],
			-rng.NormFloat64()*pow10[rng.Intn(len(pow10))])
	}
	responses := [][]permit.Response{nil, {}, {{Granted: true, TTLSeconds: 180, Utilization: 0.2}, {Utilization: 0.95}}}
	var all []permit.Response
	for i, f := range floats {
		all = append(all, permit.Response{Granted: i%2 == 0, TTLSeconds: f, Utilization: floats[len(floats)-1-i]})
	}
	responses = append(responses, all)
	for _, decisions := range responses {
		want, err := json.Marshal(plainBatchResponse{Decisions: decisions})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := appendBatchResponse(nil, decisions); err != nil || !bytes.Equal(got, want) {
			t.Errorf("response encoder wrote\n%s (err %v)\nencoding/json\n%s", got, err, want)
		}
		checkWireDecode(t, want)
	}
}

// TestCodecRefusesNaNAndInf pins what a NaN or infinite utilisation
// does: encoding/json's error from the encoder, and from the server a
// 500 with no JSON in it — never bytes a client cannot parse.
func TestCodecRefusesNaNAndInf(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := []permit.Response{{Granted: true, TTLSeconds: 1, Utilization: 0.1}, {Utilization: f}}
		_, plainErr := json.Marshal(plainBatchResponse{Decisions: bad})
		var unsupported *json.UnsupportedValueError
		if _, err := appendBatchResponse(nil, bad); !errors.As(err, &unsupported) || plainErr == nil || err.Error() != plainErr.Error() {
			t.Errorf("encoding %v: err %v, want encoding/json's %v", f, err, plainErr)
		}

		s := New(Config{Shards: 2, Utilization: func(string) float64 { return f }, Clock: &fakeClock{}})
		rec := httptest.NewRecorder()
		body := appendBatchRequest(nil, []PermitRequest{{Device: "d", Cell: "c"}})
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/permits/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusInternalServerError || strings.Contains(rec.Body.String(), "{") {
			t.Errorf("utilisation %v: server answered %d %q, want a 500 without JSON", f, rec.Code, rec.Body.String())
		}
	}
}

// checkWireDecode holds both decoders to encoding/json on one body:
// same error-ness, DeepEqual values — through json.Unmarshal (the
// UnmarshalJSON methods) and through the shape parsers directly, whose
// "mine" must mean exactly what encoding/json decodes. The request
// parser is the server's: it runs twice with one cell table, missing
// and then hitting, and both times what it takes — devices in place in
// the body, cells from the table — must be encoding/json's requests.
func checkWireDecode(t *testing.T, data []byte) {
	t.Helper()
	var req BatchRequest
	var plainReq plainBatchRequest
	err, plainErr := json.Unmarshal(data, &req), json.Unmarshal(data, &plainReq)
	if (err == nil) != (plainErr == nil) {
		t.Fatalf("request %q: err %v, encoding/json %v", data, err, plainErr)
	}
	if err == nil && !reflect.DeepEqual(req.Requests, plainReq.Requests) {
		t.Fatalf("request %q: decoded %#v, encoding/json %#v", data, req.Requests, plainReq.Requests)
	}
	var cells cellTable
	for pass := 0; pass < 2; pass++ {
		if reqs, ok := parseBatchRequest(data, nil, &cells); ok && (plainErr != nil || !sameRequests(data, reqs, plainReq.Requests)) {
			t.Fatalf("request %q: shape parser took it as %#v, encoding/json %#v (err %v)", data, reqs, plainReq.Requests, plainErr)
		}
	}

	var resp BatchResponse
	var plainResp plainBatchResponse
	err, plainErr = json.Unmarshal(data, &resp), json.Unmarshal(data, &plainResp)
	if (err == nil) != (plainErr == nil) {
		t.Fatalf("response %q: err %v, encoding/json %v", data, err, plainErr)
	}
	if err == nil && !reflect.DeepEqual(resp.Decisions, plainResp.Decisions) {
		t.Fatalf("response %q: decoded %#v, encoding/json %#v", data, resp.Decisions, plainResp.Decisions)
	}
	if decisions, ok := parseBatchResponse(data, nil); ok && (plainErr != nil || !reflect.DeepEqual(decisions, plainResp.Decisions)) {
		t.Fatalf("response %q: shape parser took it as %#v, encoding/json %#v (err %v)", data, decisions, plainResp.Decisions, plainErr)
	}
}

// sameRequests reports whether the server's parse of body took exactly
// want: the same IDs in the same order, every device a slice of body.
func sameRequests(body []byte, got []serverRequest, want []PermitRequest) bool {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return false
	}
	for i, r := range got {
		inPlace := len(r.device) == 0 || cap(r.device) <= cap(body) && &body[cap(body)-cap(r.device)] == &r.device[0]
		if !inPlace || string(r.device) != want[i].Device || r.cell != want[i].Cell {
			return false
		}
	}
	return true
}

// TestCodecTakesItsOwnBodies requires the shape parsers to take the
// bodies this repository's encoders write: the fast path has to be the
// common path, not only a correct one.
func TestCodecTakesItsOwnBodies(t *testing.T) {
	reqs := []PermitRequest{{Device: "dev-000001", Cell: "cell-001"}, {Device: "a b+c#d", Cell: "del\x7f"}}
	body := appendBatchRequest(nil, reqs)
	if got, ok := parseBatchRequest(body, nil, &cellTable{}); !ok || !sameRequests(body, got, reqs) {
		t.Errorf("shape parser left an encoder-written request body to encoding/json (ok=%t, %v)", ok, got)
	}
	decisions := []permit.Response{{Granted: true, TTLSeconds: 180, Utilization: 0.2}, {Utilization: 1e-9}}
	body, err := appendBatchResponse(nil, decisions)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := parseBatchResponse(append(body, '\n'), nil); !ok || !reflect.DeepEqual(got, decisions) {
		t.Errorf("shape parser left an encoder-written response body to encoding/json (ok=%t, %v)", ok, got)
	}
}

// codecEdges are the numbers at the edges of the codec's fast paths:
// integers the parser converts from their digits (at most 15) and the
// encoder writes with AppendInt (integral, below 1e15), decimals the
// same two take (at most 15 digits; at most six decimals), the first
// ones past them, -0, and the float forms around them.
var codecEdges = []string{"0", "-0", "1", "180", "999999999999999", "-999999999999999", "1e15",
	"1000000000000000", "9007199254740993", "1e20", "1e21", "5e-324", "180.0", "0.5",
	"0.95", "-0.0", "0.000001", "0.0000001", "1.0000001", "12345678901234.5", "123456789012345.6"}

// FuzzBatchCodec is the differential check on arbitrary bytes: both
// decoders against encoding/json, and, for a body the response parser
// takes, the encoder writing back the bytes encoding/json writes for its
// values. Its seed corpus (testdata/fuzz/FuzzBatchCodec: bodies around
// the canonical shape — padded, reordered, escaped, cased, null,
// truncated, …) runs on every plain `go test`; the seeds built here are
// the one too big to commit, a batch one request over MaxBatch, and
// codecEdges as body text and as encoded values.
func FuzzBatchCodec(f *testing.F) {
	over := make([]PermitRequest, MaxBatch+1)
	for i := range over {
		over[i] = PermitRequest{Device: fmt.Sprintf("dev-%05d", i), Cell: "cell"}
	}
	f.Add(appendBatchRequest(nil, over))
	for _, n := range codecEdges {
		f.Add([]byte(`{"decisions":[{"granted":true,"ttl_seconds":` + n + `,"utilization":` + n + `}]}`))
		v, err := strconv.ParseFloat(n, 64)
		if err != nil {
			f.Fatal(err)
		}
		body, err := appendBatchResponse(nil, []permit.Response{{Granted: true, TTLSeconds: v, Utilization: v}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWireDecode(t, data)
		if decisions, ok := parseBatchResponse(data, nil); ok {
			want, _ := json.Marshal(plainBatchResponse{Decisions: decisions})
			if got, err := appendBatchResponse(nil, decisions); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("response %q decoded to %v, which the encoder writes as\n%s (err %v)\nencoding/json as\n%s",
					data, decisions, got, err, want)
			}
		}
	})
}

// TestBatchWireInteroperatesWithEncodingJSON puts encoding/json on the
// other end of each side — the client and the server as they were
// before the codec: a reflection-encoded body, with its length declared
// as the old client did, into the new server and its reply decoded by
// reflection, then the new client — which sends its body chunked —
// against a handler that decodes and encodes by reflection.
func TestBatchWireInteroperatesWithEncodingJSON(t *testing.T) {
	reqs := []PermitRequest{{Device: "d0", Cell: "cell-0"}, {Device: "d<1>", Cell: "hot-1"}, {Device: "dé", Cell: "cell 2"}}
	wantGranted := []bool{true, false, true}

	s := New(Config{Shards: 4, Utilization: testUtil, Clock: &fakeClock{}})
	body, err := json.Marshal(plainBatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/permits/batch", bytes.NewReader(body)))
	var out plainBatchResponse
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("old client against new server: %d, decode err %v", rec.Code, err)
	}
	reply, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/permits/batch", bytes.NewReader(body)))
	if want := append(reply, '\n'); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("new server wrote\n%q\nthe reflection encoder\n%q", rec.Body.Bytes(), want)
	}
	if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
		t.Errorf("Content-Length %q on a %d-byte reply", got, rec.Body.Len())
	}

	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sent, err := io.ReadAll(r.Body)
		if want, _ := json.Marshal(plainBatchRequest{Requests: reqs}); err != nil || !bytes.Equal(sent, want) {
			t.Errorf("new client sent\n%q\nthe reflection encoder\n%q", sent, want)
		}
		if r.ContentLength != -1 || len(r.TransferEncoding) != 1 || r.TransferEncoding[0] != "chunked" {
			t.Errorf("new client sent ContentLength %d, Transfer-Encoding %q; want a chunked body of unknown length",
				r.ContentLength, r.TransferEncoding)
		}
		var in plainBatchRequest
		if err := json.Unmarshal(sent, &in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var out plainBatchResponse
		for _, pr := range in.Requests {
			out.Decisions = append(out.Decisions, s.DecideDevice(r.Context(), pr.Device, pr.Cell))
		}
		_ = json.NewEncoder(w).Encode(out)
	}))
	defer old.Close()
	got, err := (&BatchClient{BackendURL: old.URL}).Batch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("new client against old server: %v", err)
	}
	for i, d := range got {
		if d.Granted != wantGranted[i] || d.Granted != out.Decisions[i].Granted {
			t.Errorf("request %d: granted=%t, want %t", i, d.Granted, wantGranted[i])
		}
	}
}
