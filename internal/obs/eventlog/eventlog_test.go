package eventlog

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// fakeNow returns a controllable time source.
func fakeNow(t *float64) func() float64 { return func() float64 { return *t } }

func TestSpanLifecycleAndDeterminism(t *testing.T) {
	run := func() []byte {
		now := 0.0
		l := New(3, 42, fakeNow(&now))
		root := l.Begin(TraceContext{}, "scheduler.transaction", "algo", "greedy")
		now = 1.5
		child := l.Begin(root.Context(), "scheduler.attempt", "path", "dsl")
		l.Point(child.Context(), "scheduler.retry", "try", Int(1))
		now = 2.25
		child.End("outcome", "ok", "bytes", Int(1024))
		now = 3.0
		root.End("outcome", "ok")
		var buf bytes.Buffer
		if err := l.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs produced different streams:\n%s\nvs\n%s", a, b)
	}

	evs, err := ReadJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	if evs[0].Kind != KindBegin || evs[0].Name != "scheduler.transaction" {
		t.Fatalf("event 0 = %+v, want transaction begin", evs[0])
	}
	if evs[1].Parent != evs[0].Span {
		t.Fatalf("attempt parent %q != transaction span %q", evs[1].Parent, evs[0].Span)
	}
	if evs[1].Trace != evs[0].Trace {
		t.Fatalf("attempt trace %q != transaction trace %q", evs[1].Trace, evs[0].Trace)
	}
	if evs[2].Kind != KindPoint || evs[2].Parent != evs[1].Span {
		t.Fatalf("retry point = %+v, want point parented to attempt", evs[2])
	}
	if evs[3].T != 2.25 || evs[3].Attrs["bytes"] != "1024" {
		t.Fatalf("attempt end = %+v", evs[3])
	}
	for i, ev := range evs {
		if ev.Shard != 3 {
			t.Fatalf("event %d shard = %d, want 3", i, ev.Shard)
		}
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, i)
		}
	}
	if st, err := Check(evs); err != nil {
		t.Fatalf("Check: %v", err)
	} else if st.Spans != 2 || st.Points != 1 || st.Traces != 1 || st.Unended != 0 {
		t.Fatalf("Check stats = %+v", st)
	}
}

func TestSeedAndShardChangeIDs(t *testing.T) {
	id := func(shard int, seed int64) string {
		l := New(shard, seed, nil)
		return l.Begin(TraceContext{}, "x").Context().Trace
	}
	base := id(0, 1)
	if id(0, 2) == base {
		t.Fatal("different seeds produced the same trace ID")
	}
	if id(1, 1) == base {
		t.Fatal("different shards produced the same trace ID")
	}
	if id(0, 1) != base {
		t.Fatal("same (shard, seed) produced different trace IDs")
	}
}

func TestNilSafety(t *testing.T) {
	var l *Log
	sp := l.Begin(TraceContext{}, "noop")
	sp.End()
	l.Point(sp.Context(), "noop")
	l.Merge(nil)
	if l.Len() != 0 || l.Events() != nil || l.Now() != 0 {
		t.Fatal("nil log accessors not zero")
	}
	var zero Span
	zero.End()
	if zero.Context().Valid() {
		t.Fatal("zero span context valid")
	}
}

func TestRingEviction(t *testing.T) {
	l := NewRing(0, 7, nil, 3)
	for i := 0; i < 5; i++ {
		l.Point(TraceContext{}, "tick", "i", Int(int64(i)))
	}
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(evs))
	}
	if evs[0].Attrs["i"] != "2" || evs[2].Attrs["i"] != "4" {
		t.Fatalf("ring kept wrong window: %+v", evs)
	}
	if evs[0].Seq != 2 || evs[2].Seq != 4 {
		t.Fatalf("ring seqs = %d..%d, want 2..4", evs[0].Seq, evs[2].Seq)
	}
	if l.dropped != 2 {
		t.Fatalf("dropped = %d, want 2", l.dropped)
	}
}

func TestMergePreservesShardAndSeq(t *testing.T) {
	mk := func(shard int) *Log {
		l := New(shard, 9, nil)
		sp := l.Begin(TraceContext{}, "fleet.session")
		sp.End()
		return l
	}
	merged := mk(0)
	merged.Merge(mk(1))
	merged.Merge(mk(2))
	evs := merged.Events()
	if len(evs) != 6 {
		t.Fatalf("merged %d events, want 6", len(evs))
	}
	for i, ev := range evs {
		if ev.Shard != i/2 {
			t.Fatalf("event %d shard = %d, want %d", i, ev.Shard, i/2)
		}
		if ev.Seq != uint64(i%2) {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, i%2)
		}
	}
	if _, err := Check(evs); err != nil {
		t.Fatalf("Check on merged stream: %v", err)
	}
}

func TestContextRoundTrip(t *testing.T) {
	tc := TraceContext{Trace: "t1", Span: "s1"}
	ctx := NewContext(context.Background(), tc)
	got, ok := FromContext(ctx)
	if !ok || got != tc {
		t.Fatalf("FromContext = %+v, %v", got, ok)
	}
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("empty context reported a trace")
	}
}

func TestHTTPPropagation(t *testing.T) {
	h := http.Header{}
	InjectHTTP(h, TraceContext{Trace: "abc", Span: "def"})
	if got := h.Get(HeaderTrace); got != "abc/def" {
		t.Fatalf("header = %q", got)
	}
	tc, ok := ExtractHTTP(h)
	if !ok || tc.Trace != "abc" || tc.Span != "def" {
		t.Fatalf("ExtractHTTP = %+v, %v", tc, ok)
	}
	InjectHTTP(h, TraceContext{}) // zero context must not clobber
	if got := h.Get(HeaderTrace); got != "abc/def" {
		t.Fatalf("zero inject clobbered header: %q", got)
	}
	if _, ok := ExtractHTTP(http.Header{}); ok {
		t.Fatal("empty header extracted a trace")
	}
}

// A trace header from outside is taken only when each half is short and
// plain; anything else is no header at all, so the request starts a
// fresh trace instead of recording (and passing on) what it was sent.
func TestExtractHTTPRejectsForeignIDs(t *testing.T) {
	id64 := strings.Repeat("a", maxIDLen)
	for _, tc := range []struct {
		header string
		ok     bool
	}{
		{"abc/def", true},
		{"0123456789abcdef/fedcba9876543210", true},
		{"A_b-9", true},
		{"abc/", true},
		{id64 + "/" + id64, true},
		{strings.Repeat("x", 200_000), false},
		{id64 + "a/def", false},
		{"abc/" + id64 + "a", false},
		{"/def", false},
		{"a b/def", false},
		{"abc/d/e", false},
		{"abc/de\xff", false},
		{"ab\u00e9/def", false},
		{"abc/def;x=1", false},
	} {
		h := http.Header{}
		h.Set(HeaderTrace, tc.header)
		got, ok := ExtractHTTP(h)
		if ok != tc.ok {
			short := tc.header
			if len(short) > 80 {
				short = short[:80] + "..."
			}
			t.Errorf("ExtractHTTP(%q) = %+v, %v; want ok=%v", short, got, ok, tc.ok)
		}
	}
}

// FuzzTraceHeader: whatever arrives in X-3gol-Trace, extracting it does
// not panic, an accepted context is bounded and plain, and injecting an
// extracted context writes a header that extracts to the same context.
func FuzzTraceHeader(f *testing.F) {
	for _, s := range []string{"abc/def", "0123456789abcdef/fedcba9876543210", "abc", "abc/", "/def", "a/b/c", "a b/c"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		h := http.Header{}
		h.Set(HeaderTrace, v)
		tc, ok := ExtractHTTP(h)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("rejected %q but returned %+v", v, tc)
			}
			return
		}
		if !tc.Valid() || !validID(tc.Trace) || !validID(tc.Span) {
			t.Fatalf("accepted %q as %+v", v, tc)
		}
		out := http.Header{}
		InjectHTTP(out, tc)
		again, ok := ExtractHTTP(out)
		if !ok || again != tc {
			t.Fatalf("%q extracted to %+v, which injected as %q extracts to %+v, %v", v, tc, out.Get(HeaderTrace), again, ok)
		}
	})
}

// FuzzReadJSONL feeds arbitrary bytes to the reader behind 3goltrace
// -check and on through every analysis it drives: nothing panics, and
// a stream Check accepts comes back equal after WriteJSONL and
// ReadJSONL.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, checkErr := Check(events)
		a := Assemble(events)
		a.FindAnomalies()
		for _, tr := range a.Traces {
			tr.CriticalPath()
		}
		WriteChromeTrace(io.Discard, events)
		if checkErr != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, events); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("%q wrote %q, which reads back as %v", data, buf.Bytes(), err)
		}
		// An empty attrs object is omitted on the way out and reads back
		// as no attrs: the same event.
		for _, evs := range [][]Event{events, back} {
			for i := range evs {
				if len(evs[i].Attrs) == 0 {
					evs[i].Attrs = nil
				}
			}
		}
		if !reflect.DeepEqual(back, events) {
			t.Fatalf("%q read as %+v, wrote %q, read back as %+v", data, events, buf.Bytes(), back)
		}
	})
}

func TestHandler(t *testing.T) {
	l := New(0, 1, nil)
	l.Begin(TraceContext{}, "op").End()
	srv := httptest.NewServer(Handler(l))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	evs, err := ReadJSONL(resp.Body)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	post, err := http.Post(srv.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", post.StatusCode)
	}
}

func TestCheckRejectsMalformedStreams(t *testing.T) {
	ok := func() []Event {
		l := New(0, 1, nil)
		sp := l.Begin(TraceContext{}, "op")
		sp.End()
		return l.Events()
	}
	cases := []struct {
		name   string
		mutate func([]Event) []Event
		want   string
	}{
		{"bad kind", func(e []Event) []Event { e[0].Kind = "boom"; return e }, "invalid kind"},
		{"empty name", func(e []Event) []Event { e[0].Name = ""; return e }, "empty name"},
		{"empty trace", func(e []Event) []Event { e[0].Trace = ""; return e }, "empty trace"},
		{"seq regression", func(e []Event) []Event { e[1].Seq = 0; return e }, "sequence not increasing"},
		{"end before begin", func(e []Event) []Event { return []Event{e[1]} }, "end without begin"},
		{"negative time", func(e []Event) []Event { e[0].T = -1; return e }, "bad timestamp"},
		{"end precedes begin time", func(e []Event) []Event { e[0].T = 5; return e }, "before begin"},
		{"double end", func(e []Event) []Event {
			dup := e[1]
			dup.Seq = 2
			return append(e, dup)
		}, "ended twice"},
	}
	for _, tc := range cases {
		evs := tc.mutate(ok())
		_, err := Check(evs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckToleratesForeignParentsAndUnendedSpans(t *testing.T) {
	l := New(0, 1, nil)
	// Parent from "another process": not in this log.
	sp := l.Begin(TraceContext{Trace: "remote-trace", Span: "remote-span"}, "permit.decision")
	sp.End("allowed", "true")
	l.Begin(TraceContext{}, "daemon.loop") // never ended (ring snapshot shape)
	st, err := Check(l.Events())
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if st.Unended != 1 {
		t.Fatalf("Unended = %d, want 1", st.Unended)
	}
}

func TestSinceStart(t *testing.T) {
	now := SinceStart(nil)
	if v := now(); v < 0 {
		t.Fatalf("SinceStart went backwards: %v", v)
	}
}

func TestFormatters(t *testing.T) {
	if Int(-42) != "-42" {
		t.Fatalf("Int(-42) = %q", Int(-42))
	}
	if Float(1.5) != "1.5" {
		t.Fatalf("Float(1.5) = %q", Float(1.5))
	}
}
