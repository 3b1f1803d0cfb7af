package permitplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"threegol/internal/clock"
	"threegol/internal/freelist"
	"threegol/internal/obs"
	"threegol/internal/obs/eventlog"
	"threegol/internal/permit"
)

// MaxBatch bounds the number of permit requests one batch RPC may
// carry; larger batches are rejected with 413 so a single request can
// never pin a router goroutine on an unbounded decode.
const MaxBatch = 16384

// PermitRequest is one device's grant/refresh request inside a batch.
type PermitRequest struct {
	Device string `json:"device"`
	Cell   string `json:"cell"`
}

// BatchRequest is the body of POST /permits/batch.
type BatchRequest struct {
	Requests []PermitRequest `json:"requests"`
}

// BatchResponse is the reply: one decision per request, same order.
type BatchResponse struct {
	Decisions []permit.Response `json:"decisions"`
}

// Config assembles a sharded permit plane.
type Config struct {
	// Shards is the number of independent shards; <= 0 selects 1.
	Shards int
	// Threshold and TTL configure every shard's permit.Backend.
	Threshold float64
	TTL       time.Duration
	// Utilization is the shared monitoring hook (UtilTable.Get or an
	// operator's own). Required; must be safe for concurrent use.
	Utilization func(cellID string) float64
	// Clock times decisions; nil selects the system clock.
	Clock clock.Clock
	// Events, when non-nil, is the shared flight recorder: every
	// decision point carries a "shard" attribute, and the router adds a
	// permitplane.batch point per batch RPC, so 3goltrace can follow
	// any decision to the shard that made it.
	Events *eventlog.Log
	// WALDir, used by NewDurable, is the root directory for per-shard
	// write-ahead logs (ShardWALDir names each shard's subdirectory).
	// New ignores it: memory-only planes track grants but persist
	// nothing.
	WALDir string
	// SnapshotEvery is how many WAL records a shard accumulates before
	// compacting into a snapshot; <= 0 selects DefaultSnapshotEvery.
	SnapshotEvery int
}

// shard is one slice of the cell ID space: its own permit.Backend, its
// own obs registry, and its own grant store (so durability, like
// decision-making, shards without cross-shard locks).
type shard struct {
	index    int
	reg      *obs.Registry
	backend  *permit.Backend
	pmetrics Metrics
	store    *GrantStore
}

// Sharded is the cell-sharded permit plane: N shards behind a router.
// It is an http.Handler serving GET /permit (routed by cell) and POST
// /permits/batch (split by shard, fanned out, reassembled in order).
type Sharded struct {
	cfg     Config
	shards  []*shard
	router  *obs.Registry
	metrics Metrics
	events  *eventlog.Log
	clk     clock.Clock
}

// New builds a sharded plane from cfg.
func New(cfg Config) *Sharded {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	s := &Sharded{
		cfg:    cfg,
		router: obs.NewRegistry(),
		events: cfg.Events,
		clk:    clock.Or(cfg.Clock),
	}
	s.metrics = NewMetrics(s.router)
	for i := 0; i < cfg.Shards; i++ {
		reg := obs.NewRegistry()
		pm := NewMetrics(reg)
		s.shards = append(s.shards, &shard{
			index:    i,
			reg:      reg,
			pmetrics: pm,
			store:    NewGrantStore(cfg.Clock, pm),
			backend: &permit.Backend{
				Utilization: cfg.Utilization,
				Threshold:   cfg.Threshold,
				TTL:         cfg.TTL,
				Metrics:     permit.NewMetrics(reg),
				Events:      cfg.Events,
				Clock:       cfg.Clock,
				Tags:        []string{"shard", strconv.Itoa(i)},
			},
		})
	}
	return s
}

// NewDurable builds a sharded plane whose grant state survives the
// process: each shard recovers from (and appends to) its own WAL under
// cfg.WALDir. A shard that fails to recover fails the whole plane —
// better to crash loudly at boot than to serve with silently forgotten
// grants.
//
//3golvet:allow ctxprop — boot-time recovery: runs before any request exists to carry a context
func NewDurable(cfg Config) (*Sharded, error) {
	if cfg.WALDir == "" {
		return nil, fmt.Errorf("permitplane: NewDurable requires Config.WALDir")
	}
	s := New(cfg)
	for i, sh := range s.shards {
		st, err := OpenGrantStore(ShardWALDir(cfg.WALDir, i), cfg.Clock, sh.pmetrics, cfg.SnapshotEvery)
		if err != nil {
			_ = s.Close() // shards opened so far flush and release their logs
			return nil, fmt.Errorf("permitplane: recovering shard %d: %w", i, err)
		}
		sh.store = st
	}
	return s, nil
}

// Shards reports the configured shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Durable reports whether the plane persists grants to a WAL.
func (s *Sharded) Durable() bool { return s.shards[0].store.Durable() }

// shardFor routes a cell to its owning shard.
func (s *Sharded) shardFor(cellID string) *shard {
	return s.shards[ShardOf(cellID, len(s.shards))]
}

// ServeHTTP implements http.Handler: GET /permit and POST
// /permits/batch.
func (s *Sharded) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Utilization == nil {
		// Checked here, once for both routes: a batch would otherwise
		// call the nil hook on a shard goroutine, where a panic is not
		// net/http's to recover.
		http.Error(w, "backend misconfigured: no monitoring hook", http.StatusInternalServerError)
		return
	}
	switch r.URL.Path {
	case "/permit":
		s.serveSingle(w, r)
	case "/permits/batch":
		s.serveBatch(w, r)
	default:
		http.NotFound(w, r)
	}
}

// serveSingle answers GET /permit?device=<id>&cell=<id> on the cell's
// shard.
func (s *Sharded) serveSingle(w http.ResponseWriter, r *http.Request) {
	s.metrics.Routed.Inc()
	cell := r.URL.Query().Get("cell")
	device := r.URL.Query().Get("device")
	if cell == "" {
		http.Error(w, "missing cell parameter", http.StatusBadRequest)
		return
	}
	if !permit.ValidID(cell) || (device != "" && !permit.ValidID(device)) {
		http.Error(w, "invalid device or cell ID", http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	if tc, ok := eventlog.ExtractHTTP(r.Header); ok {
		ctx = eventlog.NewContext(ctx, tc)
	}
	resp := s.DecideDevice(ctx, device, cell)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp) // client disconnect; nothing to do
}

// batchScratch is what one serveBatch call works in and the next can
// reuse: both bodies, the decoded requests, the cell table, the
// decisions and the per-shard index lists. A handler owns its scratch
// from scratches until it has written the response — the ResponseWriter
// keeps nothing of a Write after it returned — and gives it back once.
//
// The IDs follow one ownership rule. A request's device is a slice of
// body, valid until the scratch goes back to scratches: nothing may keep
// one past the grant store's RecordDecisions, and the one decision that
// keeps its device, a first grant, copies it into a string of its own.
// Cells are strings (the table's, or the request's own past its bound),
// never recycled, so the store and the hooks may keep them.
type batchScratch struct {
	body      wireBuf
	out       []byte
	reqs      []serverRequest
	cells     cellTable
	decisions []permit.Response
	byShard   [][]int
}

// scratches keeps 2 MB of scratch, counted by its two bodies: 32 batches
// in flight (3golpermitload's default) of up to 64 KB at 512 requests.
var scratches = freelist.List[*batchScratch]{Name: "permitplane batch scratch", Keep: 2 << 20}

// putScratch recycles sc unless a rare huge batch grew it past what is
// worth keeping.
func putScratch(sc *batchScratch) {
	if cap(sc.body.b) > maxWireKeep || cap(sc.out) > maxWireKeep || cap(sc.reqs) > MaxBatch+1 {
		return
	}
	clear(sc.reqs[:cap(sc.reqs)]) // let go of copied devices and untabled cells
	scratches.Put(sc, cap(sc.body.b)+cap(sc.out))
}

// batchBodyLimit caps a batch body; larger is a 400.
const batchBodyLimit = 8 << 20

// serveBatch decodes a batch, fans the requests out to their owning
// shards in parallel, and writes the decisions back in request order.
// Each shard decides its slice and folds it into its grant store as one
// unit (one lock, one WAL write); the response is written only after
// every shard's fold returned — append-before-serve for the batch.
func (s *Sharded) serveBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	sc, ok := scratches.Get(0)
	if !ok {
		sc = new(batchScratch)
	}
	defer putScratch(sc)
	reject := func(status int, msg string) {
		s.metrics.batchServed(false, 0)
		http.Error(w, msg, status)
	}
	if err := sc.body.readFrom(http.MaxBytesReader(w, r.Body, batchBodyLimit), r.ContentLength); err != nil {
		reject(http.StatusBadRequest, fmt.Sprintf("malformed batch: %v", err))
		return
	}
	reqs, ok := parseBatchRequest(sc.body.b, sc.reqs, &sc.cells)
	if !ok {
		// Not the canonical shape: encoding/json decides, reading the
		// first value of the body as it always has.
		var plain plainBatchRequest
		if err := json.NewDecoder(bytes.NewReader(sc.body.b)).Decode(&plain); err != nil {
			reject(http.StatusBadRequest, fmt.Sprintf("malformed batch: %v", err))
			return
		}
		reqs = serverRequests(sc.reqs, plain.Requests)
	}
	sc.reqs = reqs
	if len(reqs) == 0 {
		reject(http.StatusBadRequest, "empty batch")
		return
	}
	if len(reqs) > MaxBatch {
		reject(http.StatusRequestEntityTooLarge, fmt.Sprintf("batch of %d exceeds limit %d", len(reqs), MaxBatch))
		return
	}
	for i, pr := range reqs {
		if pr.cell == "" {
			reject(http.StatusBadRequest, fmt.Sprintf("request %d: missing cell", i))
			return
		}
		if !permit.ValidID(pr.cell) || (len(pr.device) > 0 && !permit.ValidID(pr.device)) {
			reject(http.StatusBadRequest, fmt.Sprintf("request %d: invalid device or cell ID", i))
			return
		}
	}

	ctx := r.Context()
	tc, traced := eventlog.ExtractHTTP(r.Header)
	if traced {
		ctx = eventlog.NewContext(ctx, tc)
	}

	// Group request indices by owning shard, then decide each shard's
	// slice on its own goroutine. Indices are disjoint, so the shared
	// decisions slice needs no lock.
	if len(sc.byShard) != len(s.shards) {
		sc.byShard = make([][]int, len(s.shards))
	}
	for si := range sc.byShard {
		sc.byShard[si] = sc.byShard[si][:0]
	}
	for i, pr := range reqs {
		idx := ShardOf(pr.cell, len(s.shards))
		sc.byShard[idx] = append(sc.byShard[idx], i)
	}
	if cap(sc.decisions) < len(reqs) {
		sc.decisions = make([]permit.Response, len(reqs))
	}
	decisions := sc.decisions[:len(reqs)]
	var wg sync.WaitGroup
	for si, indices := range sc.byShard {
		if len(indices) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *shard, indices []int) {
			defer wg.Done()
			sh.backend.DecideN(ctx, len(indices),
				func(k int) string { return reqs[indices[k]].cell },
				func(k int, r permit.Response) { decisions[indices[k]] = r })
			sh.store.RecordDecisions(reqs, decisions, indices)
		}(s.shards[si], indices)
	}
	wg.Wait()

	s.metrics.batchServed(true, len(reqs))
	if s.events != nil {
		s.events.Point(tc, "permitplane.batch",
			"size", strconv.Itoa(len(reqs)),
			"shards", strconv.Itoa(len(s.shards)))
	}
	var err error
	if sc.out, err = appendBatchResponse(sc.out[:0], decisions); err != nil {
		// A NaN or infinite utilisation from the monitoring hook: there
		// is no JSON for it, so the batch fails whole rather than send
		// bytes no client can parse.
		http.Error(w, fmt.Sprintf("encoding batch response: %v", err), http.StatusInternalServerError)
		return
	}
	sc.out = append(sc.out, '\n') // json.Encoder's line end, as ever
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(sc.out)))
	_, _ = w.Write(sc.out) // client disconnect; nothing to do
}

// Stats sums grant/denial counts across shards.
func (s *Sharded) Stats() (grants, denials int64) {
	for _, sh := range s.shards {
		g, d := sh.backend.Metrics.Counts()
		grants += g
		denials += d
	}
	return grants, denials
}

// ShardStatus is one shard's /debug/shards entry. The WAL fields are
// zero-valued on memory-only planes; Recovery appears only on durable
// shards (nil otherwise, omitted from the JSON).
type ShardStatus struct {
	Shard   int   `json:"shard"`
	Grants  int64 `json:"grants"`
	Denials int64 `json:"denials"`
	// Outstanding is the live (unexpired) grant count.
	Outstanding int `json:"outstanding"`
	// WALSeq is the last applied WAL sequence number.
	WALSeq uint64 `json:"wal_seq"`
	// StateHash is the SHA-256 of the canonical grant-state marshal, so
	// two observers can agree on a shard's whole grant state.
	StateHash string `json:"state_hash,omitempty"`
	// WALErrors counts failed WAL writes (durability degraded).
	WALErrors int64 `json:"wal_errors,omitempty"`
	// Recovery reports the boot-time replay, when the shard is durable.
	Recovery *Recovery `json:"recovery,omitempty"`
}

// Status reports per-shard decision counts and grant-store state in
// shard order.
//
//3golvet:allow ctxprop — the only I/O is lazy expiry's WAL appends inside the store accessors, which must not be skippable by cancellation
func (s *Sharded) Status() []ShardStatus {
	out := make([]ShardStatus, len(s.shards))
	for i, sh := range s.shards {
		g, d := sh.backend.Metrics.Counts()
		out[i] = ShardStatus{
			Shard:       i,
			Grants:      g,
			Denials:     d,
			Outstanding: sh.store.Outstanding(),
			WALSeq:      sh.store.Seq(),
			StateHash:   sh.store.StateHash(),
			WALErrors:   sh.store.WALErrors(),
		}
		if sh.store.Durable() {
			rec := sh.store.Recovery()
			out[i].Recovery = &rec
		}
	}
	return out
}

// StatusHandler serves Status as the /debug/shards JSON endpoint.
func (s *Sharded) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Status()) // client disconnect; nothing to do
	})
}

// MergeInto folds the router's and every shard's instruments into dst,
// in shard order. dst must have the permit and permitplane families
// registered (permit.NewMetrics + NewMetrics).
func (s *Sharded) MergeInto(dst *obs.Registry) {
	dst.Merge(s.router)
	for _, sh := range s.shards {
		dst.Merge(sh.reg)
	}
}

// MergedRegistry builds a fresh registry holding the plane's merged
// state. Because shard assignment is a pure function of the cell ID and
// merging runs in shard order over sorted metric names, the snapshot is
// byte-identical for the same request history regardless of how many
// shards served it — the same guarantee the fleet engine gives across
// worker counts.
func (s *Sharded) MergedRegistry() *obs.Registry {
	dst := obs.NewRegistry()
	permit.NewMetrics(dst)
	NewMetrics(dst)
	s.MergeInto(dst)
	return dst
}

// MetricsHandler serves the merged registry as /debug/metrics,
// re-merging on every request so the dump is always current.
func (s *Sharded) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obs.Handler(s.MergedRegistry()).ServeHTTP(w, r)
	})
}

// DecideDevice routes one decision to the cell's shard and folds it into
// that shard's grant store. It is GET /permit's path and the entry point
// for embedded planes (tests, the benchmark); an empty device makes a
// decision the store does not track.
func (s *Sharded) DecideDevice(ctx context.Context, device, cell string) permit.Response {
	sh := s.shardFor(cell)
	resp := sh.backend.Decide(ctx, cell)
	sh.store.RecordDecision(device, cell, resp.Granted, resp.TTLSeconds)
	return resp
}

// Close flushes a final snapshot on every shard and closes the WALs.
//
//3golvet:allow ctxprop — shutdown-path flush: runs after request serving stopped, must not be cancellable
func (s *Sharded) Close() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.store.Close(); err != nil && first == nil {
			first = fmt.Errorf("permitplane: closing shard %d: %w", sh.index, err)
		}
	}
	return first
}
