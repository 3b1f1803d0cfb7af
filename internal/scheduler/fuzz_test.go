package scheduler

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzCore drives the decision core from a byte script through a
// single-threaded model driver and holds every answer to what the model
// knows must be true, whatever the order and timing of events. Under a
// greedy policy with the breaker on, that includes every breaker
// transition, held to a per-path reference breaker (refBreaker).
//
// Script layout. Five header bytes: policy (mod 4), paths (1 + mod 4;
// bit 7 is read below), items (mod 9), MaxRetries (1 + mod 3), and
// option flags — 1 no duplication, 2 backoff with seeded
// jitter, 4 breaker, 8 an inflated InitialBandwidth for path 0, 16
// MinAlpha 0.5, 32 byte ranges on every path but path 1, and on path 1
// too when the paths byte has bit 7 set (the model is the core's
// Splitter, and a running attempt holds fuzzRate bytes a second of its
// window; over paths that all carry ranges the core may also divide a
// pending item when it assigns it). Then one byte per item, its size in
// kB. Then events of two bytes each. The first picks a path
// (low two bits, mod paths), what the path's running attempt does (bits
// 2–3: 2 fails, anything else succeeds; a replica the winner already
// cancelled instead returns silently unless 2, fails anyway, or 3,
// finishes anyway) and how far time moves first (high nibble, quarter
// seconds — zero keeps the instant). The second is the bytes a success
// reports, in units of 500. An event on an idle path asks Idle.
//
// The model keeps its own copy of each pooled path's estimate, so it can
// hold the endgame's gate to its rule: a replica of an item whose
// carriers are all ranged launches only when it is expected to win, and
// a Wait outside a breaker hold names the instant the gate says.
func FuzzCore(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		first := playCoreScript(t, script)
		if again := playCoreScript(t, script); !slices.Equal(first.steps, again.steps) {
			t.Fatalf("same script, different decisions:\n%s--- vs ---\n%s", first.transcript(), again.transcript())
		}
	})
}

// coreModel is what a faithful driver knows without looking inside the
// core: what it launched, what came back, what the verdicts said.
type coreModel struct {
	t       *testing.T
	c       *Core
	fixed   bool
	dup     bool
	breaker bool
	now     float64

	carrying  []int  // [path] item of the running attempt, −1 when idle
	cancelled []bool // [path] the winner cancelled the running attempt
	ranged    []bool // [path] can carry a byte range
	windows   []fuzzWindow
	bodies    int            // the highest Body handed out
	covered   []int64        // [item] bytes of it that successes delivered
	split     []bool         // [item] was split
	body      []int          // [item] the buffer of a split item's pieces
	pool      [][]fuzzWindow // [item] a split item's pieces waiting for a path
	pieces    int            // Piece decisions: pending items divided on assignment
	cut       fuzzWindow
	done      []bool
	home      []int        // [item] fixed queues: the one path that ever carried it
	breakers  []refBreaker // [path] what the breaker's transitions must be
	fails     [][]int      // [item][path] failures charged while undelivered
	exhausted bool
	est       []float64 // [path] the pooled estimate, bits/s, as observe keeps it
	lastWhole int64     // the bytes of the last item won whole

	algo  Algo
	sizes []int64
	opts  Options
	steps []coreStep
}

// refBreaker is the model's own breaker for one path, written from the
// rule rather than from Breaker: Threshold consecutive failures or one
// failed probe open it for min(Cooldown·2ᵏ, MaxCooldown) — k openings
// since the path's last success — and a success closes it.
type refBreaker struct {
	state  int // breakerClosed, breakerOpen, breakerHalfOpen
	consec int
	opens  int
	until  float64
}

// The fuzzed breaker's hold: Cooldown 1 s, MaxCooldown left to its
// default of 8 × Cooldown.
const fuzzHoldBase, fuzzHoldMax = 1.0, 8.0

// fuzzRate is how fast, in bytes a second, a running attempt of the
// model fills its window.
const fuzzRate = 40 << 10

// fuzzWindow is a running attempt's window [off, end) of its item, its
// buffer and when it started.
type fuzzWindow struct {
	off, end int64
	body     int
	started  float64
}

// held is how many bytes path p's attempt has received by now.
func (m *coreModel) held(p int) int64 {
	w := m.windows[p]
	return min(w.end-w.off, int64((m.now-w.started)*fuzzRate))
}

// Ranged, Left and Cut make the model the core's Splitter.
func (m *coreModel) Ranged(p int) bool { return m.ranged[p] }

// Left sees no bytes of a window whose end is unknown (an item of size
// 0), as a live attempt sees none before its response headers.
func (m *coreModel) Left(p int) (int64, bool) {
	m.running(p, "Left")
	w := m.windows[p]
	return w.end - w.off - m.held(p), w.end > 0
}

func (m *coreModel) Cut(p int, share float64, least int64) (int64, int64, bool) {
	m.running(p, "Cut")
	w := &m.windows[p]
	if share <= 0 || share >= 1 || least <= 0 {
		m.fatalf("Cut(%d) by share %v, least %d", p, share, least)
	}
	at, ok := SplitAt(w.off+m.held(p), w.end, share, least)
	if !ok {
		return 0, 0, false
	}
	m.cut = fuzzWindow{off: at, end: w.end, body: w.body}
	w.end = at
	return at, m.cut.end, true
}

// running fails unless path p runs a live ranged attempt.
func (m *coreModel) running(p int, call string) {
	if p < 0 || p >= len(m.carrying) || m.carrying[p] < 0 || m.cancelled[p] || !m.ranged[p] {
		m.fatalf("%s(%d) on a path with no live ranged attempt", call, p)
	}
}

// coreStep is one call into the core and its answer, kept comparable
// and unformatted: the transcript is only rendered for a failure, which
// keeps fmt's pooled state out of the fuzzer's coverage signal.
type coreStep struct {
	now        float64
	call       string // "idle", "succeeded", "failed"
	path, item int
	bytes      int64
	d          Decision
	won        bool
	cancel     int // Success.Cancel as a bit set of paths
	closed     bool
	f          Failure
}

func (m *coreModel) transcript() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v, %d paths, sizes %v, %+v\n", m.algo, len(m.carrying), m.sizes, m.opts)
	for _, s := range m.steps {
		fmt.Fprintf(&b, "%+v\n", s)
	}
	return b.String()
}

func (m *coreModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("%s\ntranscript:\n%s", fmt.Sprintf(format, args...), m.transcript())
}

func (m *coreModel) carriers(item int) (n int) {
	for q, it := range m.carrying {
		if it == item && !m.cancelled[q] {
			n++
		}
	}
	return n
}

// idle asks the core what idle path p carries and checks the answer. It
// returns the time a Wait named, or 0.
func (m *coreModel) idle(p int) float64 {
	m.cut = fuzzWindow{}
	d := m.c.Idle(p, m.now)
	m.steps = append(m.steps, coreStep{now: m.now, call: "idle", path: p, d: d})
	if m.fixed && (d.Action == Duplicate || d.Action == Wait || d.Probe || d.Action == Split || d.Action == Piece) {
		m.fatalf("fixed queue answered %+v", d)
	}
	if !m.ranged[p] && (d.Off != 0 || d.End != 0 || d.Body != 0 || d.Carrier != 0) {
		m.fatalf("a path that cannot carry a range was answered %+v", d)
	}
	if d.Action != Split && m.cut != (fuzzWindow{}) {
		m.fatalf("the core cut an attempt at %+v yet answered %+v", m.cut, d)
	}
	rb := &m.breakers[p]
	hold := rb.state == breakerOpen && m.now < rb.until
	switch {
	case hold:
		if d != (Decision{Action: Wait, Until: rb.until}) {
			m.fatalf("breaker open until %v yet Idle answered %+v", rb.until, d)
		}
	case rb.state == breakerOpen:
		if !d.Probe {
			m.fatalf("breaker hold ended at %v yet Idle answered %+v, not a probe", rb.until, d)
		}
		rb.state = breakerHalfOpen
	case d.Probe:
		m.fatalf("breaker is not open yet Idle answered %+v", d)
	}
	switch d.Action {
	case Park:
	case Wait:
		if d.Until <= m.now {
			m.fatalf("Wait until %v is not in the future of %v", d.Until, m.now)
		}
		if !hold {
			m.gatedWait(p, d)
		}
		return d.Until
	case Assign, Duplicate, Split, Piece:
		if d.Item < 0 || d.Item >= len(m.done) {
			m.fatalf("item %d out of range", d.Item)
		}
		if m.done[d.Item] {
			m.fatalf("handed out item %d, already delivered", d.Item)
		}
		if m.fails[d.Item][p] >= m.opts.MaxRetries {
			m.fatalf("path %d handed item %d with its budget for it spent", p, d.Item)
		}
		if n := m.carriers(d.Item); !m.split[d.Item] && (d.Action == Assign || d.Action == Piece) != (n == 0) {
			m.fatalf("%+v with %d paths already carrying the item", d, n)
		}
		if d.Action != Assign && !m.dup {
			m.fatalf("duplication is off yet Idle answered %+v", d)
		}
		if d.Action == Duplicate && m.split[d.Item] {
			m.fatalf("%+v duplicates a split item", d)
		}
		if d.Action == Duplicate {
			if gated, wins, _ := m.gate(p, d.Item); gated && !wins {
				m.fatalf("%+v launches a replica the gate does not expect to win", d)
			}
		}
		m.launch(p, d)
		if m.fixed {
			if h := m.home[d.Item]; h >= 0 && h != p {
				m.fatalf("item %d moved from path %d to path %d", d.Item, h, p)
			}
			m.home[d.Item] = p
		}
		m.carrying[p] = d.Item
	default:
		m.fatalf("unknown action %+v", d)
	}
	return 0
}

// gate is the endgame's rule for a replica of item on path p, written
// from the rule: it applies when every live carrier of item is ranged,
// the item's size is known (or an item was won whole) and p and every
// carrier have an estimate; then the replica wins when its own time,
// size·8/est_p + minPieceTime, is at most every carrier's expected
// remaining time, or the latest carrier is already late by that own
// time, which is the instant a path that waits asks again.
func (m *coreModel) gate(p, item int) (gated, wins bool, until float64) {
	size, est := m.sizes[item], m.est[p]
	if size == 0 {
		size = m.lastWhole
	}
	if size == 0 || est <= 0 {
		return false, false, 0
	}
	own := float64(size)*8/est + minPieceTime
	wins, due := true, 0.0
	for q, it := range m.carrying {
		if it != item || m.cancelled[q] {
			continue
		}
		if !m.ranged[q] || m.est[q] <= 0 {
			return false, false, 0
		}
		dq := m.windows[q].started + float64(size)*8/m.est[q]
		rem := dq - m.now
		if w := m.windows[q]; w.end > 0 {
			rem = float64(w.end-w.off-m.held(q)) * 8 / m.est[q]
		}
		wins = wins && own <= max(rem, m.now-dq)
		due = max(due, dq)
	}
	return true, wins || m.now >= due+own, due + own
}

// gatedWait fails unless a Wait outside a breaker hold is the gate
// holding back an endgame replica: nothing waits in the pool that path p
// may carry, and some item in flight that p could duplicate is one the
// gate does not expect p to win, and names the Wait's instant.
func (m *coreModel) gatedWait(p int, d Decision) {
	if !m.dup {
		m.fatalf("duplication is off yet Idle answered %+v", d)
	}
	candidate := false
	for it := range m.done {
		if m.done[it] || m.fails[it][p] >= m.opts.MaxRetries {
			continue
		}
		n := m.carriers(it)
		if (n == 0 && !m.split[it]) || (len(m.pool[it]) > 0 && m.ranged[p]) {
			m.fatalf("%+v with item %d waiting for a path", d, it)
		}
		if gated, wins, until := m.gate(p, it); n > 0 && !m.split[it] && gated && !wins && until == d.Until {
			candidate = true
		}
	}
	if !candidate {
		m.fatalf("%+v holds back no replica the gate says waits until then", d)
	}
}

// observe is the core's estimator as the model keeps it: a pooled path's
// first measurable transfer sets it, and each later one is smoothed in.
func (m *coreModel) observe(p int, bytes int64) {
	seconds := m.now - m.windows[p].started
	if m.fixed || seconds <= 0 {
		return
	}
	x := float64(bytes) * 8 / seconds
	if m.est[p] > 0 {
		a := m.opts.minAlpha()
		x = a*x + (1-a)*m.est[p]
	}
	m.est[p] = x
}

// launch checks a decision's window and buffer and puts it on path p.
// A split item's bytes are always accounted for: each is delivered,
// carried, or in exactly one window of its pool.
func (m *coreModel) launch(p int, d Decision) {
	w := fuzzWindow{off: 0, end: m.sizes[d.Item], body: d.Body, started: m.now}
	switch {
	case d.Action == Split:
		q := d.Carrier
		if q == p || !m.ranged[p] || q < 0 || q >= len(m.carrying) || m.carrying[q] != d.Item || m.cancelled[q] {
			m.fatalf("%+v: path %d does not carry a live attempt at item %d", d, q, d.Item)
		}
		if m.cut == (fuzzWindow{}) || d.Off != m.cut.off || d.End != m.cut.end || d.Body != m.windows[q].body {
			m.fatalf("%+v, but the cut the core asked for gave %+v of a body %d", d, m.cut, m.windows[q].body)
		}
		m.split[d.Item], m.body[d.Item] = true, d.Body
		w.off, w.end = d.Off, d.End
	case d.Action == Piece:
		if !m.ranged[p] || d.Off >= d.End {
			m.fatalf("%+v: a piece for path %d", d, p)
		}
		if !m.split[d.Item] {
			// The first division of a pending item: a new buffer, and the
			// whole item waits in the pool until the head is taken.
			if d.Body <= m.bodies {
				m.fatalf("%+v divides item %d into an old body (last %d)", d, d.Item, m.bodies)
			}
			m.bodies = d.Body
			m.split[d.Item], m.body[d.Item] = true, d.Body
			m.pool[d.Item] = []fuzzWindow{{off: 0, end: m.sizes[d.Item]}}
		}
		i := m.waiting(d, func(pw fuzzWindow) bool { return pw.off == d.Off && d.End < pw.end })
		m.pool[d.Item][i].off = d.End
		m.pieces++
		w.off, w.end = d.Off, d.End
	case d.End > 0:
		if !m.split[d.Item] || d.Action != Assign || d.Off >= d.End {
			m.fatalf("%+v hands out a piece of an item never split", d)
		}
		i := m.waiting(d, func(pw fuzzWindow) bool { return pw.off == d.Off && pw.end == d.End })
		m.pool[d.Item] = slices.Delete(m.pool[d.Item], i, i+1)
		w.off, w.end = d.Off, d.End
	case m.ranged[p]:
		if d.Off != 0 || d.Body <= m.bodies {
			m.fatalf("%+v is a whole item on a ranged path but not in a new body (last %d)", d, m.bodies)
		}
		m.bodies = d.Body
		if m.split[d.Item] {
			m.fatalf("%+v hands out the whole of a split item", d)
		}
	}
	m.windows[p] = w
}

// waiting returns the index of the window of d's item's pool that match
// accepts, failing unless there is one and d names the item's buffer.
func (m *coreModel) waiting(d Decision, match func(fuzzWindow) bool) int {
	i := slices.IndexFunc(m.pool[d.Item], match)
	if i < 0 || d.Body != m.body[d.Item] {
		m.fatalf("%+v is no piece waiting in item %d's pool %+v of body %d", d, d.Item, m.pool[d.Item], m.body[d.Item])
	}
	return i
}

func (m *coreModel) succeed(p int, bytes int64) {
	item := m.carrying[p]
	wantCancel := 0
	if !m.done[item] {
		wantCancel = m.carriers(item) - 1
	}
	w := m.windows[p]
	m.covered[item] += w.end - w.off
	m.carrying[p], m.cancelled[p] = -1, false
	m.observe(p, bytes)
	s := m.c.Succeeded(item, p, bytes, m.now)
	step := coreStep{now: m.now, call: "succeeded", path: p, item: item, bytes: bytes, won: s.Won, closed: s.Closed}
	for _, q := range s.Cancel {
		step.cancel |= 1 << q
	}
	m.steps = append(m.steps, step)
	whole := m.covered[item] >= m.sizes[item]
	if s.Won != (!m.done[item] && whole) || s.Piece != (!m.done[item] && !whole) {
		m.fatalf("%+v for item %d, delivered before = %v, %d of its %d bytes in",
			s, item, m.done[item], m.covered[item], m.sizes[item])
	}
	if s.Piece {
		if len(s.Cancel) != 0 {
			m.fatalf("a piece cancelled %v", s.Cancel)
		}
		m.breakers[p] = refBreaker{}
		return
	}
	if s.Won && !m.split[item] {
		m.lastWhole = bytes
	}
	m.done[item] = true
	if len(m.pool[item]) != 0 {
		m.fatalf("item %d won with pieces %+v still waiting", item, m.pool[item])
	}
	if len(s.Cancel) != wantCancel {
		m.fatalf("Cancel = %v, want the %d other carriers of item %d", s.Cancel, wantCancel, item)
	}
	for _, q := range s.Cancel {
		if q < 0 || q >= len(m.carrying) || q == p || m.carrying[q] != item || m.cancelled[q] {
			m.fatalf("Cancel names path %d, which is not running a live replica of item %d", q, item)
		}
		m.cancelled[q] = true
	}
	if rb := &m.breakers[p]; s.Closed != (rb.state == breakerHalfOpen) {
		m.fatalf("breaker state %d yet %+v", rb.state, s)
	}
	m.breakers[p] = refBreaker{}
}

func (m *coreModel) fail(p int) {
	item := m.carrying[p]
	live := !m.cancelled[p]
	m.carrying[p], m.cancelled[p] = -1, false
	if live && m.split[item] {
		m.pool[item] = append(m.pool[item], m.windows[p])
	}
	f := m.c.Failed(item, p, m.now)
	m.steps = append(m.steps, coreStep{now: m.now, call: "failed", path: p, item: item, f: f})
	m.failBreaker(p, f)
	if f.Backoff < 0 || (f.Backoff > 0 && (m.opts.Backoff.Base == 0 || f.Exhausted)) {
		m.fatalf("backoff base %v yet %+v", m.opts.Backoff.Base, f)
	}
	if m.done[item] {
		if f.Exhausted || f.Requeued || f.Attempts != 0 {
			m.fatalf("delivered item %d was charged: %+v", item, f)
		}
		return
	}
	m.fails[item][p]++
	attempts, everywhere := 0, true
	for q, k := range m.fails[item] {
		attempts += k
		everywhere = everywhere && (k >= m.opts.MaxRetries || (m.split[item] && !m.ranged[q]))
	}
	want := Failure{Exhausted: everywhere, Everywhere: everywhere, Attempts: attempts,
		Requeued: !everywhere && (m.carriers(item) == 0 || (live && m.split[item]))}
	if m.fixed {
		k := m.fails[item][p]
		want = Failure{Exhausted: k >= m.opts.MaxRetries, Attempts: k}
	}
	if f.Exhausted != want.Exhausted || f.Everywhere != want.Everywhere ||
		f.Attempts != want.Attempts || f.Requeued != want.Requeued {
		m.fatalf("%+v; the budgets spent say %+v", f, want)
	}
	m.exhausted = f.Exhausted
}

// failBreaker steps path p's reference breaker on a failure and holds
// the verdict's Opened and Cooldown to it.
func (m *coreModel) failBreaker(p int, f Failure) {
	rb := &m.breakers[p]
	opened := false
	if m.breaker {
		switch rb.state {
		case breakerClosed:
			rb.consec++
			opened = rb.consec >= m.opts.Breaker.Threshold
		case breakerHalfOpen:
			opened = true
		default:
			m.fatalf("path %d failed an attempt while its breaker was open", p)
		}
	}
	var hold float64
	if opened {
		hold = math.Min(fuzzHoldBase*math.Pow(2, float64(rb.opens)), fuzzHoldMax)
		*rb = refBreaker{state: breakerOpen, opens: rb.opens + 1, until: m.now + hold}
	}
	if f.Opened != opened || f.Cooldown != hold {
		m.fatalf("%+v; the reference breaker says Opened %v, Cooldown %v", f, opened, hold)
	}
}

func playCoreScript(t *testing.T, script []byte) *coreModel {
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	algo := Algo(next() % 4)
	pathsByte := next()
	paths := 1 + int(pathsByte%4)
	items := int(next() % 9)
	opts := Options{MaxRetries: 1 + int(next()%3)}
	flags := next()
	opts.DisableDuplication = flags&1 != 0
	if flags&2 != 0 {
		opts.Backoff = BackoffConfig{Base: time.Second, Jitter: 0.5, Seed: int64(flags)}
	}
	if flags&4 != 0 {
		opts.Breaker = BreakerConfig{Threshold: 1 + int(flags>>6), Cooldown: time.Second}
	}
	names := make([]string, paths)
	for p := range names {
		names[p] = "p" + strconv.Itoa(p)
	}
	if flags&8 != 0 {
		opts.InitialBandwidth = map[string]float64{names[0]: 80e6}
	}
	if flags&16 != 0 {
		opts.MinAlpha = 0.5
	}
	sizes := make([]int64, items)
	for i := range sizes {
		sizes[i] = 1000 * int64(next())
	}

	fixed := algo == RoundRobin || algo == MinTime
	m := &coreModel{
		t: t, c: NewCore(algo, sizes, names, opts), fixed: fixed,
		algo: algo, sizes: sizes, opts: opts,
		dup:     !fixed && !opts.DisableDuplication,
		breaker: !fixed && opts.Breaker.Threshold > 0,

		carrying: make([]int, paths), cancelled: make([]bool, paths),
		ranged: make([]bool, paths), windows: make([]fuzzWindow, paths),
		covered: make([]int64, items), split: make([]bool, items),
		body: make([]int, items), pool: make([][]fuzzWindow, items),
		done: make([]bool, items), home: make([]int, items), fails: make([][]int, items),
		breakers: make([]refBreaker, paths), est: make([]float64, paths),
	}
	// The model is the core's Splitter, as each driver is, ranged or
	// not: over unranged paths it must never be asked to cut.
	for p := range m.ranged {
		m.ranged[p] = flags&32 != 0 && !fixed && (p != 1 || pathsByte&128 != 0)
	}
	m.c.SetSplitter(m)
	for p := range m.carrying {
		m.carrying[p] = -1
	}
	for i := range m.home {
		m.home[i], m.fails[i] = -1, make([]int, paths)
	}

	for len(script) > 0 && !m.exhausted {
		ev, bytes := next(), 500*int64(next())
		p, outcome := int(ev&3)%paths, ev>>2&3
		m.now += float64(ev>>4) / 4
		switch {
		case m.carrying[p] < 0:
			m.idle(p)
		case outcome == 2:
			m.fail(p)
		case outcome == 3 || !m.cancelled[p]:
			m.succeed(p, bytes)
		default: // the cancellation reached the replica: it reports nothing
			m.carrying[p], m.cancelled[p] = -1, false
		}
	}
	if m.exhausted {
		return m
	}

	// Liveness: from wherever the script left things, a world in which
	// every attempt succeeds delivers every item. Each sweep lets every
	// busy path finish and every idle one ask; a sweep in which nothing
	// finished and nothing was launched jumps the clock to the earliest
	// breaker hold, and there must be one. Each piece the core divided
	// off a pending item leaves a tail in the pool that may take a
	// sweep of its own, whether the division came before the sweeps or
	// during them; endgame splits get no allowance.
	for sweep := 0; ; sweep++ {
		left := 0
		for _, d := range m.done {
			if !d {
				left++
			}
		}
		if left == 0 {
			break
		}
		if sweep > 2*(items+paths+m.pieces)+2 {
			m.fatalf("liveness: %d items undelivered after %d all-success sweeps", left, sweep)
		}
		wake, progress := 0.0, false
		for p := range m.carrying {
			switch {
			case m.carrying[p] < 0:
				if until := m.idle(p); until > 0 && (wake == 0 || until < wake) {
					wake = until
				}
				progress = progress || m.carrying[p] >= 0
			case m.cancelled[p]:
				m.carrying[p], m.cancelled[p] = -1, false
				progress = true
			default:
				m.succeed(p, m.windows[p].end-m.windows[p].off)
				progress = true
			}
		}
		if !progress {
			if wake == 0 {
				m.fatalf("liveness: every path parked with %d items undelivered", left)
			}
			m.now = wake
		}
	}
	return m
}
