package permitplane

import (
	"container/heap"
	"sync"
	"time"

	"threegol/internal/cellular"
	"threegol/internal/clock"
	"threegol/internal/linksim"
	"threegol/internal/permit"
)

// Per-grant load defaults: what one granted permit is assumed to add to
// its cell's shared channels. The paper's devices fall back to 360/64
// kbps dedicated channels, but an onloading device drives the shared
// channel far harder; 500/250 kbps is a conservative planning figure —
// operators tune it per deployment.
const (
	DefaultPerGrantDL = 500 * linksim.Kbps
	DefaultPerGrantUL = 250 * linksim.Kbps
)

// CellLoop closes the network-integrated admission loop of §5: grant
// decisions read live congestion from the internal/cellular model, and
// every granted permit feeds its expected load back into the cell for
// the permit's lifetime, so the next decision sees the capacity this
// one just spent. Wire Utilization and OnGrant into Config (or a bare
// permit.Backend) and the loop is closed.
//
// The cellular model is not goroutine-safe; the loop serialises every
// touch of it behind its own mutex, so nothing else may drive the
// network concurrently with a serving backend. Simulations that own
// both should call the hooks from the simulation goroutine.
type CellLoop struct {
	// PerGrantDL and PerGrantUL are the per-permit load assumptions in
	// bits/s; zero selects the defaults.
	PerGrantDL, PerGrantUL float64
	// TTL is how long a grant's load stays applied — set it to the
	// backend's permit TTL; zero selects permit.DefaultTTL.
	TTL time.Duration
	// Clock expires grants; nil selects the system clock. Tests inject
	// a fake to step grants across TTL boundaries deterministically.
	Clock clock.Clock
	// Metrics receives admission-loop gauges; the zero value records
	// nothing.
	Metrics Metrics

	mu      sync.Mutex
	cells   map[string]*cellular.Cell
	active  map[string]int
	pending grantHeap
	total   int
}

// NewCellLoop builds a loop over every sector of net, keyed by sector
// name (the cell ID devices report).
func NewCellLoop(net *cellular.Network) *CellLoop {
	l := &CellLoop{
		cells:  make(map[string]*cellular.Cell),
		active: make(map[string]int),
	}
	for _, bs := range net.BaseStations() {
		for _, c := range bs.Sectors() {
			l.cells[c.Name()] = c
		}
	}
	return l
}

func (l *CellLoop) perGrant() (dl, ul float64) {
	dl, ul = l.PerGrantDL, l.PerGrantUL
	if dl <= 0 {
		dl = DefaultPerGrantDL
	}
	if ul <= 0 {
		ul = DefaultPerGrantUL
	}
	return dl, ul
}

func (l *CellLoop) ttl() time.Duration {
	if l.TTL > 0 {
		return l.TTL
	}
	return permit.DefaultTTL
}

// Utilization reports the cell's current congestion — the
// Backend.Utilization hook. Cells the model does not know fail closed
// (utilisation 1.0): a device reporting a bogus cell gets no permit.
func (l *CellLoop) Utilization(cellID string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked(clock.Or(l.Clock).Now())
	c, ok := l.cells[cellID]
	if !ok {
		return 1.0
	}
	return c.Congestion()
}

// OnGrant records one granted permit — the Backend.OnGrant hook. The
// grant's load applies to the cell immediately and lapses after TTL.
func (l *CellLoop) OnGrant(cellID string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := clock.Or(l.Clock).Now()
	l.expireLocked(now)
	if _, ok := l.cells[cellID]; !ok {
		return // unknown cell can never have been granted; Utilization said 1.0
	}
	l.active[cellID]++
	l.total++
	heap.Push(&l.pending, grantExpiry{at: now.Add(l.ttl()), cell: cellID})
	l.applyLocked(cellID)
	l.reportLocked()
}

// ActiveGrants reports the live (unexpired) grant count for a cell.
func (l *CellLoop) ActiveGrants(cellID string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked(clock.Or(l.Clock).Now())
	return l.active[cellID]
}

// expireLocked retires grants whose TTL has lapsed, returning their
// load to the cells. Caller holds l.mu.
func (l *CellLoop) expireLocked(now time.Time) {
	changed := false
	for len(l.pending) > 0 && !now.Before(l.pending[0].at) {
		g := heap.Pop(&l.pending).(grantExpiry)
		l.active[g.cell]--
		l.total--
		l.applyLocked(g.cell)
		changed = true
	}
	if changed {
		l.reportLocked()
	}
}

// applyLocked pushes a cell's current granted load into the cellular
// model. Caller holds l.mu.
func (l *CellLoop) applyLocked(cellID string) {
	dl, ul := l.perGrant()
	n := float64(l.active[cellID])
	l.cells[cellID].SetOnloadBps(n*dl, n*ul)
}

// reportLocked refreshes the admission gauges. Caller holds l.mu.
func (l *CellLoop) reportLocked() {
	dl, ul := l.perGrant()
	n := float64(l.total)
	l.Metrics.admitted(l.total, n*dl, n*ul)
}

// grantExpiry is one granted permit's scheduled load release.
type grantExpiry struct {
	at   time.Time
	cell string
}

// grantHeap is a min-heap of grant expiries by time.
type grantHeap []grantExpiry

func (h grantHeap) Len() int           { return len(h) }
func (h grantHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h grantHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *grantHeap) Push(x any)        { *h = append(*h, x.(grantExpiry)) }
func (h *grantHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
