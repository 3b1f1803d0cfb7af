package scheduler

import (
	"context"
	"errors"
	"sync"
	"testing"

	"threegol/internal/obs/eventlog"
)

// newTestLog returns a log on a strictly increasing fake time source so
// span extents are non-zero without real sleeps. Time sources are read
// outside the log's lock, so this one synchronises itself — the same
// contract SinceStart and simclock satisfy.
func newTestLog() *eventlog.Log {
	var mu sync.Mutex
	var t float64
	return eventlog.New(0, 42, func() float64 {
		mu.Lock()
		defer mu.Unlock()
		t += 0.001
		return t
	})
}

func filterEvents(evs []eventlog.Event, kind, name string) []eventlog.Event {
	var out []eventlog.Event
	for _, ev := range evs {
		if ev.Kind == kind && ev.Name == name {
			out = append(out, ev)
		}
	}
	return out
}

// points counts the points of the named kind on path.
func points(evs []eventlog.Event, name, path string) int {
	n := 0
	for _, ev := range filterEvents(evs, eventlog.KindPoint, name) {
		if ev.Attrs["path"] == path {
			n++
		}
	}
	return n
}

// outcomes tallies the "outcome" attr over the end events of the named
// span kind.
func outcomes(evs []eventlog.Event, name string) map[string]int {
	m := make(map[string]int)
	for _, ev := range filterEvents(evs, eventlog.KindEnd, name) {
		m[ev.Attrs["outcome"]]++
	}
	return m
}

// Every event of a transaction must share the transaction's trace, and
// points/attempts must parent to the transaction span.
func checkSingleTrace(t *testing.T, evs []eventlog.Event) (txSpan string) {
	t.Helper()
	begins := filterEvents(evs, eventlog.KindBegin, "scheduler.transaction")
	if len(begins) != 1 {
		t.Fatalf("got %d transaction begins, want 1", len(begins))
	}
	tx := begins[0]
	for _, ev := range evs {
		if ev.Trace != tx.Trace {
			t.Errorf("event %s/%s on trace %s, want %s", ev.Kind, ev.Name, ev.Trace, tx.Trace)
		}
	}
	return tx.Span
}

// A failed attempt on a fixed-queue policy emits one retry point per
// failure and an ok attempt once the path recovers.
func TestRetryEventsOnFixedPath(t *testing.T) {
	log := newTestLog()
	p := &fakePath{name: "adsl", rate: 1e6, failures: map[int]int{0: 2}}
	rep, err := Run(context.Background(), RoundRobin, mkItems(1, 1000), []Path{p},
		Options{MaxRetries: 3, Events: log})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerPath["adsl"].Items != 1 {
		t.Fatalf("item not completed: %+v", rep.PerPath)
	}
	evs := log.Events()
	txSpan := checkSingleTrace(t, evs)

	if got := len(filterEvents(evs, eventlog.KindPoint, "scheduler.retry")); got != 2 {
		t.Errorf("retry points = %d, want 2", got)
	}
	if got := len(filterEvents(evs, eventlog.KindPoint, "scheduler.exhausted")); got != 0 {
		t.Errorf("exhausted points = %d, want 0", got)
	}
	if got := outcomes(evs, "scheduler.attempt"); got["error"] != 2 || got["ok"] != 1 {
		t.Errorf("attempt outcomes = %v, want error:2 ok:1", got)
	}
	for _, ev := range filterEvents(evs, eventlog.KindBegin, "scheduler.attempt") {
		if ev.Parent != txSpan {
			t.Errorf("attempt parented to %s, want transaction span %s", ev.Parent, txSpan)
		}
	}
	if got := len(filterEvents(evs, eventlog.KindPoint, "scheduler.item_done")); got != 1 {
		t.Errorf("item_done points = %d, want 1", got)
	}
	if got := outcomes(evs, "scheduler.transaction"); got["ok"] != 1 {
		t.Errorf("transaction outcomes = %v, want ok:1", got)
	}
}

// Ruling (e): a same-path retry on a fixed queue is a fresh launch —
// one assign point and one attempt span per attempt, as GRD has after a
// requeue — but not a requeue: nothing was reassigned.
func TestFixedQueueRetryIsALaunchNotARequeue(t *testing.T) {
	for _, algo := range []Algo{RoundRobin, MinTime} {
		log := newTestLog()
		p := &fakePath{name: "adsl", rate: 1e6, failures: map[int]int{0: 2}}
		if _, err := Run(context.Background(), algo, mkItems(1, 1000), []Path{p},
			Options{MaxRetries: 3, Events: log}); err != nil {
			t.Fatal(err)
		}
		evs := log.Events()
		if got := len(filterEvents(evs, eventlog.KindPoint, "scheduler.assign")); got != 3 {
			t.Errorf("%v: assign points = %d, want 3 (one per launch)", algo, got)
		}
		if got := len(filterEvents(evs, eventlog.KindBegin, "scheduler.attempt")); got != 3 {
			t.Errorf("%v: attempt spans = %d, want 3", algo, got)
		}
		if got := len(filterEvents(evs, eventlog.KindPoint, "scheduler.requeue")); got != 0 {
			t.Errorf("%v: requeue points = %d, want 0", algo, got)
		}
	}
}

// MaxRetries exhaustion aborts the transaction and leaves an exhausted
// point plus an error-ended transaction in the stream.
func TestExhaustionEvents(t *testing.T) {
	log := newTestLog()
	p := &fakePath{name: "adsl", rate: 1e6, failures: map[int]int{0: 99}}
	_, err := Run(context.Background(), RoundRobin, mkItems(1, 1000), []Path{p},
		Options{MaxRetries: 2, Events: log})
	if err == nil {
		t.Fatal("want exhaustion error")
	}
	// Exhaustion surfaces as a typed *ItemError carrying the item, path
	// and attempt count, with the final failure preserved for errors.Is.
	var ie *ItemError
	if !errors.As(err, &ie) {
		t.Fatalf("exhaustion error is %T, want *ItemError", err)
	}
	const wantMsg = "scheduler: item 0 (item0) failed on path adsl after 2 attempts: injected failure for item 0"
	if err.Error() != wantMsg {
		t.Errorf("error message = %q\n            want %q", err, wantMsg)
	}
	evs := log.Events()
	checkSingleTrace(t, evs)

	if got := len(filterEvents(evs, eventlog.KindPoint, "scheduler.retry")); got != 2 {
		t.Errorf("retry points = %d, want 2", got)
	}
	if got := len(filterEvents(evs, eventlog.KindPoint, "scheduler.exhausted")); got != 1 {
		t.Errorf("exhausted points = %d, want 1", got)
	}
	if got := outcomes(evs, "scheduler.attempt"); got["error"] != 2 {
		t.Errorf("attempt outcomes = %v, want error:2", got)
	}
	tx := outcomes(evs, "scheduler.transaction")
	if tx["error"] != 1 {
		t.Errorf("transaction outcomes = %v, want error:1", tx)
	}
	ends := filterEvents(evs, eventlog.KindEnd, "scheduler.transaction")
	if len(ends) == 1 && ends[0].Attrs["error"] == "" {
		t.Error("error-ended transaction carries no error attr")
	}
}

// The GRD endgame duplicates the in-flight item onto the idle path; the
// losing replica must surface as a duplicate point plus a cancelled or
// lost_race attempt end — the waste 3goltrace accounts.
func TestGreedyDuplicateEvents(t *testing.T) {
	log := newTestLog()
	paths := []Path{
		&fakePath{name: "adsl", rate: 200e3},
		&fakePath{name: "ph1", rate: 150e3},
	}
	rep, err := Run(context.Background(), Greedy, mkItems(1, 20000), paths,
		Options{Events: log})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duplicates < 1 {
		t.Fatalf("endgame never duplicated: %+v", rep)
	}
	evs := log.Events()
	checkSingleTrace(t, evs)

	if got := len(filterEvents(evs, eventlog.KindPoint, "scheduler.duplicate")); got != rep.Duplicates {
		t.Errorf("duplicate points = %d, want %d (Report.Duplicates)", got, rep.Duplicates)
	}
	if got := len(filterEvents(evs, eventlog.KindPoint, "scheduler.assign")); got != 1 {
		t.Errorf("assign points = %d, want 1", got)
	}
	oc := outcomes(evs, "scheduler.attempt")
	if oc["ok"] != 1 {
		t.Errorf("attempt outcomes = %v, want exactly one ok", oc)
	}
	if oc["cancelled"]+oc["lost_race"] != rep.Duplicates {
		t.Errorf("attempt outcomes = %v, want %d losing replicas", oc, rep.Duplicates)
	}
	if got := len(filterEvents(evs, eventlog.KindPoint, "scheduler.item_done")); got != 1 {
		t.Errorf("item_done points = %d, want 1", got)
	}
}

// A genuine failure with no surviving replica requeues the item, which
// must leave a requeue point before the item eventually completes.
func TestGreedyRequeueEvents(t *testing.T) {
	log := newTestLog()
	p := &fakePath{name: "adsl", rate: 1e6, failures: map[int]int{0: 1}}
	rep, err := Run(context.Background(), Greedy, mkItems(2, 1000), []Path{p},
		Options{MaxRetries: 3, Events: log})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerPath["adsl"].Items != 2 {
		t.Fatalf("completions = %d, want 2", rep.PerPath["adsl"].Items)
	}
	evs := log.Events()
	checkSingleTrace(t, evs)

	if got := len(filterEvents(evs, eventlog.KindPoint, "scheduler.requeue")); got != 1 {
		t.Errorf("requeue points = %d, want 1", got)
	}
	if got := len(filterEvents(evs, eventlog.KindPoint, "scheduler.retry")); got != 1 {
		t.Errorf("retry points = %d, want 1", got)
	}
	// 2 initial assignments + 1 re-assignment after the requeue.
	if got := len(filterEvents(evs, eventlog.KindPoint, "scheduler.assign")); got != 3 {
		t.Errorf("assign points = %d, want 3", got)
	}
	if got := len(filterEvents(evs, eventlog.KindPoint, "scheduler.item_done")); got != 2 {
		t.Errorf("item_done points = %d, want 2", got)
	}
}

// Options.Trace stitches the transaction under a caller-supplied span —
// the client-request → scheduler propagation path.
func TestTransactionParentedUnderCallerSpan(t *testing.T) {
	log := newTestLog()
	root := log.Begin(eventlog.TraceContext{}, "client.request")
	p := &fakePath{name: "adsl", rate: 1e6}
	if _, err := Run(context.Background(), RoundRobin, mkItems(1, 1000), []Path{p},
		Options{Events: log, Trace: root.Context()}); err != nil {
		t.Fatal(err)
	}
	root.End("outcome", "ok")
	evs := log.Events()
	begins := filterEvents(evs, eventlog.KindBegin, "scheduler.transaction")
	if len(begins) != 1 {
		t.Fatalf("got %d transaction begins, want 1", len(begins))
	}
	if begins[0].Trace != root.Context().Trace {
		t.Errorf("transaction on trace %s, want caller trace %s", begins[0].Trace, root.Context().Trace)
	}
	if begins[0].Parent != root.Context().Span {
		t.Errorf("transaction parented to %q, want caller span %s", begins[0].Parent, root.Context().Span)
	}
	if _, err := eventlog.Check(evs); err != nil {
		t.Fatalf("stream fails Check: %v", err)
	}
}

// A nil Events log must be a no-op for every policy (the default path
// stays unobserved and allocation-free).
func TestNilEventLog(t *testing.T) {
	for _, algo := range []Algo{Greedy, RoundRobin, MinTime} {
		p := &fakePath{name: "p", rate: 1e6}
		if _, err := Run(context.Background(), algo, mkItems(2, 500), []Path{p}, Options{}); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
	}
}
