package eventlog

import (
	"bytes"
	"encoding/json"
	"testing"
)

// buildSessionLog fabricates a fleet-shaped trace: a session root with
// an ADSL leg and a 3G leg, the ADSL leg ending last.
func buildSessionLog(t *testing.T) *Log {
	t.Helper()
	now := 0.0
	l := New(0, 11, fakeNow(&now))
	root := l.Begin(TraceContext{}, "fleet.session", "bytes", Int(8_000_000))
	adsl := l.Begin(root.Context(), "fleet.path.adsl", "path", "adsl")
	g3 := l.Begin(root.Context(), "fleet.path.3g", "path", "3g")
	g3.EndAt(4.0, "bytes", Int(3_000_000))
	adsl.EndAt(10.0, "bytes", Int(5_000_000))
	root.EndAt(10.0, "onloaded", Int(3_000_000))
	return l
}

func TestAssembleAndCriticalPath(t *testing.T) {
	l := buildSessionLog(t)
	a := Assemble(l.Events())
	if len(a.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(a.Traces))
	}
	tr := a.Traces[0]
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "fleet.session" {
		t.Fatalf("roots = %+v", tr.Roots)
	}
	if len(tr.Roots[0].Children) != 2 {
		t.Fatalf("session has %d children, want 2", len(tr.Roots[0].Children))
	}
	if got := a.byID[tr.ID]; got != tr {
		t.Fatalf("TraceByID mismatch")
	}

	steps := tr.CriticalPath()
	if len(steps) != 2 {
		t.Fatalf("critical path has %d steps, want 2: %+v", len(steps), steps)
	}
	if steps[0].Span.Name != "fleet.session" || steps[1].Span.Name != "fleet.path.adsl" {
		t.Fatalf("critical path = %s -> %s, want session -> adsl",
			steps[0].Span.Name, steps[1].Span.Name)
	}
	// The ADSL leg (10s) dominates; the session contributes 0 exclusive
	// time on top of it.
	if steps[0].Self != 0 || steps[1].Self != 10.0 {
		t.Fatalf("self times = %v, %v; want 0, 10", steps[0].Self, steps[1].Self)
	}
}

func TestCriticalPathSkipsUnendedRoots(t *testing.T) {
	l := New(0, 1, nil)
	l.Begin(TraceContext{}, "dangling")
	a := Assemble(l.Events())
	if steps := a.Traces[0].CriticalPath(); steps != nil {
		t.Fatalf("critical path over unended root = %+v, want nil", steps)
	}
}

func TestFindAnomalies(t *testing.T) {
	now := 0.0
	l := New(0, 5, fakeNow(&now))

	// Retry storm: one transaction with 3 retries.
	storm := l.Begin(TraceContext{}, "scheduler.transaction")
	for i := 0; i < 3; i++ {
		sp := l.Begin(storm.Context(), "scheduler.attempt", "path", "dsl", "item", "a")
		l.Point(sp.Context(), "scheduler.retry", "try", Int(int64(i)))
		now += 1.0
		sp.End("outcome", "error")
	}
	l.Point(storm.Context(), "scheduler.exhausted", "item", "a")
	storm.End("outcome", "error")

	// Straggler: path "slow" takes ~10x the median path mean (the dsl
	// and fast paths sit near 1s and 0.1s). Plus a duplicate that lost.
	tx := l.Begin(TraceContext{}, "scheduler.transaction")
	for i := 0; i < 3; i++ {
		fast := l.Begin(tx.Context(), "scheduler.attempt", "path", "fast")
		now += 0.1
		fast.End("outcome", "ok", "bytes", Int(1000))
		slow := l.Begin(tx.Context(), "scheduler.attempt", "path", "slow")
		now += 10.0
		slow.End("outcome", "ok", "bytes", Int(1000))
	}
	l.Point(tx.Context(), "scheduler.duplicate", "item", "b", "path", "slow")
	dup := l.Begin(tx.Context(), "scheduler.attempt", "path", "slow", "item", "b")
	now += 0.5
	dup.End("outcome", "lost_race", "bytes", Int(777))
	tx.End("outcome", "ok")

	an := Assemble(l.Events()).FindAnomalies()
	if len(an.RetryStorms) != 1 || an.RetryStorms[0].Count != 3 {
		t.Fatalf("retry storms = %+v, want one with count 3", an.RetryStorms)
	}
	if len(an.StragglerPaths) != 1 || an.StragglerPaths[0].Path != "slow" {
		t.Fatalf("stragglers = %+v, want [slow]", an.StragglerPaths)
	}
	if an.DuplicateEvents != 1 {
		t.Fatalf("duplicates = %d, want 1", an.DuplicateEvents)
	}
	if an.WastedBytes != 777 {
		t.Fatalf("wasted bytes = %d, want 777", an.WastedBytes)
	}
	if an.BudgetExhausted != 1 {
		t.Fatalf("budget exhausted = %d, want 1", an.BudgetExhausted)
	}
}

func TestWriteChromeTraceSchema(t *testing.T) {
	l := buildSessionLog(t)
	l.Point(TraceContext{Trace: l.Events()[0].Trace}, "fleet.budget_exhausted")
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, l.Events()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}

	// Schema check: decode strictly into the trace_event shape.
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			Ts   *float64          `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  *int              `json:"pid"`
			Tid  *int              `json:"tid"`
			S    string            `json:"s"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("chrome export failed schema decode: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 4 { // 3 spans + 1 instant
		t.Fatalf("got %d trace events, want 4", len(doc.TraceEvents))
	}
	var sawInstant, sawComplete bool
	for _, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Cat == "" || ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("trace event missing required fields: %+v", ev)
		}
		switch ev.Ph {
		case "X":
			sawComplete = true
			if ev.Name == "fleet.path.adsl" && ev.Dur != 10e6 {
				t.Fatalf("adsl dur = %v us, want 10e6", ev.Dur)
			}
		case "i":
			sawInstant = true
			if ev.S != "t" {
				t.Fatalf("instant scope = %q, want t", ev.S)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
		if ev.Args["trace"] == "" {
			t.Fatalf("trace event missing trace arg: %+v", ev)
		}
		if ev.Cat != "fleet" {
			t.Fatalf("cat = %q, want fleet", ev.Cat)
		}
	}
	if !sawInstant || !sawComplete {
		t.Fatalf("export missing phases: instant=%v complete=%v", sawInstant, sawComplete)
	}

	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, l.Events()); err != nil {
		t.Fatalf("second WriteChromeTrace: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("chrome export not deterministic")
	}
}
