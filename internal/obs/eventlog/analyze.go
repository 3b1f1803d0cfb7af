package eventlog

import (
	"sort"
	"strings"
)

// SpanNode is one reconstructed span in a trace tree.
type SpanNode struct {
	ID       string
	Name     string
	Parent   string // "" for roots or cross-process parents absent locally
	Children []*SpanNode
	Start    float64
	End      float64
	Ended    bool
	Shard    int
	// Attrs merges the begin and end attrs (end wins on conflict), so
	// outcome attrs land on the node.
	Attrs  map[string]string
	Points []Event // points parented to this span, in stream order
}

// Duration is End-Start for ended spans, 0 otherwise.
func (n *SpanNode) Duration() float64 {
	if !n.Ended {
		return 0
	}
	return n.End - n.Start
}

// Trace is one causal transaction: all spans and points sharing a
// trace ID.
type Trace struct {
	ID    string
	Roots []*SpanNode // spans with no locally-resolvable parent
	Spans []*SpanNode // all spans, in begin order
	// Points holds points whose parent span was not found locally
	// (including unparented points), in stream order.
	Points []Event
}

// Analysis is the assembled view of a stream.
type Analysis struct {
	Traces []*Trace // first-seen order
	Events []Event
	byID   map[string]*Trace
}

// Assemble reconstructs span trees from a flat event stream. It never
// fails: malformed fragments (unended spans, ends without begins,
// missing parents) degrade to partial trees, because the analyzer must
// cope with ring-buffer snapshots and multi-process logs. Run Check
// first when integrity matters.
func Assemble(events []Event) *Analysis {
	a := &Analysis{Events: events, byID: make(map[string]*Trace)}
	nodes := make(map[string]*SpanNode)
	trace := func(id string) *Trace {
		t := a.byID[id]
		if t == nil {
			t = &Trace{ID: id}
			a.byID[id] = t
			a.Traces = append(a.Traces, t)
		}
		return t
	}
	for i := range events {
		ev := events[i]
		t := trace(ev.Trace)
		switch ev.Kind {
		case KindBegin:
			n := &SpanNode{
				ID: ev.Span, Name: ev.Name, Parent: ev.Parent,
				Start: ev.T, Shard: ev.Shard,
				Attrs: copyAttrs(ev.Attrs),
			}
			nodes[ev.Span] = n
			t.Spans = append(t.Spans, n)
		case KindEnd:
			if n := nodes[ev.Span]; n != nil {
				n.End = ev.T
				n.Ended = true
				for k, v := range ev.Attrs {
					if n.Attrs == nil {
						n.Attrs = make(map[string]string)
					}
					n.Attrs[k] = v
				}
			}
		case KindPoint:
			if n := nodes[ev.Parent]; n != nil {
				n.Points = append(n.Points, ev)
			} else {
				t.Points = append(t.Points, ev)
			}
		}
	}
	for _, t := range a.Traces {
		for _, n := range t.Spans {
			if p := nodes[n.Parent]; p != nil {
				p.Children = append(p.Children, n)
			} else {
				t.Roots = append(t.Roots, n)
			}
		}
	}
	return a
}

// PathStep is one hop on a critical path: the span, and how much of the
// transaction's duration it accounts for exclusively (its duration
// minus its critical child's).
type PathStep struct {
	Span *SpanNode
	Self float64
}

// CriticalPath walks the dominant chain of a trace: starting from the
// latest-ending root, repeatedly descend into the latest-ending child.
// For the paper's objective — total transaction time — the span that
// ends last is the one gating completion, so this chain is exactly
// "which path/retry dominated the transaction". Unended spans are
// skipped (their extent is unknown). Returns nil for traces with no
// ended root.
func (t *Trace) CriticalPath() []PathStep {
	cur := latestEnding(t.Roots)
	if cur == nil {
		return nil
	}
	var steps []PathStep
	for cur != nil {
		next := latestEnding(cur.Children)
		self := cur.Duration()
		if next != nil {
			self -= next.Duration()
			if self < 0 {
				self = 0
			}
		}
		steps = append(steps, PathStep{Span: cur, Self: self})
		cur = next
	}
	return steps
}

func latestEnding(nodes []*SpanNode) *SpanNode {
	var best *SpanNode
	for _, n := range nodes {
		if !n.Ended {
			continue
		}
		if best == nil || n.End > best.End ||
			(n.End == best.End && n.ID < best.ID) {
			best = n
		}
	}
	return best
}

// Anomalies is the summary surfaced by 3goltrace -anomalies.
type Anomalies struct {
	// RetryStorms lists traces with RetryStormThreshold or more retry
	// points, worst first.
	RetryStorms []TraceCount
	// StragglerPaths lists paths whose mean attempt duration is at
	// least 2x the median of all path means.
	StragglerPaths []PathStat
	// DuplicateEvents counts endgame duplicate assignments; WastedBytes
	// sums bytes attributed to lost or cancelled replicas.
	DuplicateEvents int
	WastedBytes     int64
	// BudgetExhausted counts events recording an exhausted 3G budget or
	// a fully exhausted item.
	BudgetExhausted int
}

// RetryStormThreshold is the retry count at which a trace is flagged.
const RetryStormThreshold = 3

// TraceCount pairs a trace with an event count.
type TraceCount struct {
	Trace string
	Count int
}

// PathStat summarises attempt durations on one named path.
type PathStat struct {
	Path     string
	Attempts int
	MeanSecs float64
}

// FindAnomalies scans the assembled analysis for the failure shapes the
// paper's evaluation cares about: retry storms (a flaky path eating the
// transaction), straggler paths (one link consistently slower than the
// rest), and duplicate waste (endgame replication spending bytes that
// lost the race).
func (a *Analysis) FindAnomalies() Anomalies {
	var out Anomalies
	type acc struct {
		n   int
		sum float64
	}
	paths := make(map[string]*acc)
	for _, t := range a.Traces {
		retries := 0
		for _, n := range t.Spans {
			for _, p := range n.Points {
				retries += classifyPoint(p, &out)
			}
			if strings.HasSuffix(n.Name, ".attempt") && n.Ended {
				if path := n.Attrs["path"]; path != "" {
					pa := paths[path]
					if pa == nil {
						pa = &acc{}
						paths[path] = pa
					}
					pa.n++
					pa.sum += n.Duration()
					switch n.Attrs["outcome"] {
					case "lost_race", "cancelled":
						out.WastedBytes += atoi(n.Attrs["bytes"])
					}
				}
			}
		}
		for _, p := range t.Points {
			retries += classifyPoint(p, &out)
		}
		if retries >= RetryStormThreshold {
			out.RetryStorms = append(out.RetryStorms, TraceCount{Trace: t.ID, Count: retries})
		}
	}
	sort.Slice(out.RetryStorms, func(i, j int) bool {
		if out.RetryStorms[i].Count != out.RetryStorms[j].Count {
			return out.RetryStorms[i].Count > out.RetryStorms[j].Count
		}
		return out.RetryStorms[i].Trace < out.RetryStorms[j].Trace
	})

	var stats []PathStat
	for name, pa := range paths {
		stats = append(stats, PathStat{Path: name, Attempts: pa.n, MeanSecs: pa.sum / float64(pa.n)})
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Path < stats[j].Path })
	if len(stats) >= 2 {
		means := make([]float64, len(stats))
		for i, s := range stats {
			means[i] = s.MeanSecs
		}
		sort.Float64s(means)
		median := means[len(means)/2]
		if len(means)%2 == 0 {
			median = (means[len(means)/2-1] + means[len(means)/2]) / 2
		}
		for _, s := range stats {
			if median > 0 && s.MeanSecs >= 2*median {
				out.StragglerPaths = append(out.StragglerPaths, s)
			}
		}
	}
	return out
}

// classifyPoint buckets one point event, returning 1 if it was a retry.
func classifyPoint(p Event, out *Anomalies) int {
	switch {
	case strings.HasSuffix(p.Name, ".retry"):
		return 1
	case strings.HasSuffix(p.Name, ".duplicate"):
		out.DuplicateEvents++
	case strings.HasSuffix(p.Name, ".budget_exhausted"), strings.HasSuffix(p.Name, ".exhausted"):
		out.BudgetExhausted++
	}
	return 0
}

func copyAttrs(m map[string]string) map[string]string {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func atoi(s string) int64 {
	var n int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int64(c-'0')
	}
	return n
}
