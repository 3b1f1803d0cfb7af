// Package eventlog is the repository's deterministic flight recorder: a
// structured, causal event log in the style of Dapper-like request
// tracing, kept as reproducible as the simulations it observes. Where
// internal/obs aggregates (how much, how often), the event log explains
// (why was *this* item slow): every scheduler assignment, transfer
// attempt, retry, requeue, endgame duplicate, permit decision and
// completion is one event on a trace, and cmd/3goltrace reconstructs
// timelines, critical paths and anomaly summaries from the stream.
//
// Three properties distinguish it from an off-the-shelf tracer:
//
//   - Deterministic IDs. Trace and span IDs derive from a seeded
//     per-shard counter (splitmix64 over the (seed, shard, counter)
//     triple) — never from wall clock or global randomness. Two runs of
//     the same simulation emit byte-identical streams. The package is on
//     the 3golvet SimPackages list.
//   - Deterministic time. The log never reads a clock itself: it stamps
//     events through an injected `func() float64` time source — a
//     simclock's Now in simulations, SinceStart(clock) in daemons.
//   - Exact merging. Per-shard logs concatenate in shard order through
//     Merge (the internal/fleet.Mergeable contract), so a 16-worker
//     fleet run and a single-worker run of the same config produce the
//     same bytes, pinned by internal/fleet's determinism tests.
//
// Spans nest through TraceContext, which also rides context.Context
// values and an HTTP header (see context.go) so a trace survives the
// client → proxy → permit-backend process boundaries.
package eventlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"threegol/internal/clock"
)

// Event kinds: a span opens with a begin, closes with an end carrying
// the same span ID, and instantaneous facts are points.
const (
	KindBegin = "begin"
	KindEnd   = "end"
	KindPoint = "point"
)

// TraceContext identifies a position in a trace: the trace itself and
// the current (innermost) span. The zero value means "no trace"; every
// API treats it as "start a new root trace" or "emit unparented".
type TraceContext struct {
	Trace string
	Span  string
}

// Valid reports whether tc names a trace.
func (tc TraceContext) Valid() bool { return tc.Trace != "" }

// Event is one flight-recorder record. Attrs is a map so encoding/json
// serialises it in sorted key order — a requirement for byte-identical
// streams, not a convenience.
type Event struct {
	// Shard and Seq identify the event's origin log and its emission
	// index there; merged streams keep both, so per-shard order stays
	// reconstructable.
	Shard int    `json:"shard"`
	Seq   uint64 `json:"seq"`
	// T is the event time in seconds on the log's injected time source
	// (virtual seconds in simulations).
	T float64 `json:"t"`
	// Kind is KindBegin, KindEnd or KindPoint.
	Kind string `json:"kind"`
	// Name identifies the operation, conventionally "<subsystem>.<op>"
	// ("scheduler.attempt", "fleet.session", "permit.decision").
	Name string `json:"name"`
	// Trace groups every event of one causal transaction.
	Trace string `json:"trace"`
	// Span is set on begin/end pairs; Parent, when set, is the enclosing
	// span (possibly from another process's log — parents cross process
	// boundaries via the HTTP header, so analyzers must not require
	// them to resolve locally).
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	// Attrs carries string key/value details (byte counts, outcomes,
	// path names). Numeric values are formatted with Int/Float so
	// streams stay deterministic.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Log is one shard's (or one process's) event stream. All methods are
// safe for concurrent use and nil-safe: a nil *Log records nothing, so
// instrumented code needs no guards — the same convention as obs's
// metric handles.
type Log struct {
	shard int
	seed  int64
	now   func() float64

	mu      sync.Mutex
	nextSeq uint64
	nextID  uint64
	ring    int // 0 = unbounded
	start   int // ring read position
	events  []Event
	dropped uint64
}

// New returns an unbounded log for shard, deriving IDs from seed and
// stamping events on the injected time source (a simclock's Now, or
// SinceStart for real-time processes). The source is read outside the
// log's lock, so it must itself be safe for concurrent use when the log
// is shared across goroutines. A nil now stamps every event at 0 —
// causal order without timing.
func New(shard int, seed int64, now func() float64) *Log {
	if now == nil {
		now = func() float64 { return 0 }
	}
	return &Log{shard: shard, seed: seed, now: now}
}

// NewRing is New with a bounded buffer retaining the most recent n
// events (oldest evicted first) — the shape daemons use for their
// /debug/events endpoint, where an unbounded log would leak.
func NewRing(shard int, seed int64, now func() float64, n int) *Log {
	l := New(shard, seed, now)
	if n > 0 {
		l.ring = n
	}
	return l
}

// SinceStart returns a time source measuring seconds since its own
// creation on clk (nil selects the system clock) — how daemons and
// prototype-path code stamp events. Simulations pass their simclock's
// Now instead and never touch this.
func SinceStart(clk clock.Clock) func() float64 {
	c := clock.Or(clk)
	start := c.Now()
	return func() float64 { return c.Since(start).Seconds() }
}

// Now reports the log's current time source reading (0 on a nil log).
func (l *Log) Now() float64 {
	if l == nil {
		return 0
	}
	return l.now()
}

// SplitMix64 is the repo's one seed mixer: the SplitMix64 output
// function, a bijection on uint64 that turns a counter, hash or packed
// index into a well-distributed value. Span IDs here, fault.MixSeed and
// permitplane.JitterFrac all derive from it, so distinct inputs never
// collide and nothing needs a wall clock or the global rand source.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newIDLocked derives the next trace/span ID. The pre-mix input packs
// (shard, counter) into disjoint bit ranges and XORs the seed, so IDs
// are unique within a run and — because SplitMix64 is a bijection —
// collision-free across shards sharing one seed. No wall clock, no
// global rand: byte-identical across runs. Caller holds l.mu.
func (l *Log) newIDLocked() string {
	l.nextID++
	return fmt.Sprintf("%016x", SplitMix64(uint64(l.seed)^(uint64(l.shard)+1)<<40^l.nextID))
}

// emitLocked stamps and stores one event. Caller holds l.mu.
func (l *Log) emitLocked(ev Event) {
	ev.Shard = l.shard
	ev.Seq = l.nextSeq
	l.nextSeq++
	l.appendLocked(ev)
}

// appendLocked stores an already-stamped event, honouring the ring
// bound. Caller holds l.mu.
func (l *Log) appendLocked(ev Event) {
	if l.ring > 0 && len(l.events) == l.ring {
		l.events[l.start] = ev
		l.start = (l.start + 1) % l.ring
		l.dropped++
		return
	}
	l.events = append(l.events, ev)
}

// Span is one in-flight traced operation. The zero value is inert:
// End and Context on it are no-ops, so spans from a nil log flow
// through instrumented code safely.
type Span struct {
	l    *Log
	name string
	tc   TraceContext
}

// Context returns the span's position for parenting children or
// propagating across a process boundary.
func (s Span) Context() TraceContext {
	if s.l == nil {
		return TraceContext{}
	}
	return s.tc
}

// Begin opens a span at the current time. A zero parent starts a new
// root trace; otherwise the span joins parent's trace as its child.
// attrs are alternating key/value pairs.
func (l *Log) Begin(parent TraceContext, name string, attrs ...string) Span {
	if l == nil {
		return Span{}
	}
	t := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	tc := TraceContext{Trace: parent.Trace}
	if tc.Trace == "" {
		tc.Trace = l.newIDLocked()
	}
	tc.Span = l.newIDLocked()
	l.emitLocked(Event{
		T: t, Kind: KindBegin, Name: name,
		Trace: tc.Trace, Span: tc.Span, Parent: parent.Span,
		Attrs: attrMap(attrs),
	})
	return Span{l: l, name: name, tc: tc}
}

// End closes the span at the current time, attaching outcome attrs.
func (s Span) End(attrs ...string) {
	if s.l == nil {
		return
	}
	s.EndAt(s.l.now(), attrs...)
}

// EndAt is End at an explicit time.
func (s Span) EndAt(t float64, attrs ...string) {
	if s.l == nil {
		return
	}
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	s.l.emitLocked(Event{
		T: t, Kind: KindEnd, Name: s.name,
		Trace: s.tc.Trace, Span: s.tc.Span,
		Attrs: attrMap(attrs),
	})
}

// Point emits an instantaneous event at the current time, parented to
// tc (a zero tc starts a fresh trace so the point is still findable).
func (l *Log) Point(tc TraceContext, name string, attrs ...string) {
	if l == nil {
		return
	}
	t := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	trace := tc.Trace
	if trace == "" {
		trace = l.newIDLocked()
	}
	l.emitLocked(Event{
		T: t, Kind: KindPoint, Name: name,
		Trace: trace, Parent: tc.Span,
		Attrs: attrMap(attrs),
	})
}

// Events returns a copy of the stored events in order (oldest first for
// ring logs).
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.events))
	out = append(out, l.events[l.start:]...)
	out = append(out, l.events[:l.start]...)
	return out
}

// Len reports how many events the log currently holds.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Merge appends src's events after l's, preserving each event's
// original shard and sequence — the fleet merge-reduce contract. Folded
// in shard order, the merged stream is bit-identical for every worker
// count, exactly like obs.Registry.Merge.
func (l *Log) Merge(src *Log) {
	if l == nil || src == nil {
		return
	}
	evs := src.Events()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ev := range evs {
		l.appendLocked(ev)
	}
}

// WriteJSONL writes the log as JSON Lines, one event per line — the
// 3golfleet -events capture format and the /debug/events payload.
// encoding/json sorts map keys, so identical logs serialise to
// identical bytes.
func (l *Log) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, l.Events())
}

// WriteJSONL writes events as JSON Lines.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSON Lines event stream, skipping blank lines.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("eventlog: line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("eventlog: reading stream: %w", err)
	}
	return out, nil
}

// attrMap pairs up alternating key/value arguments; a trailing key maps
// to the empty string.
func attrMap(kv []string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]string, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		if i+1 < len(kv) {
			m[kv[i]] = kv[i+1]
		} else {
			m[kv[i]] = ""
		}
	}
	return m
}

// Int formats an attr value deterministically.
func Int(n int64) string { return strconv.FormatInt(n, 10) }

// Float formats an attr value deterministically (shortest round-trip
// form, the same across platforms).
func Float(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
