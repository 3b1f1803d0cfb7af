package permitplane

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"threegol/internal/clock"
	"threegol/internal/permit"
	"threegol/internal/permitplane/wal"
)

// DefaultSnapshotEvery is how many WAL records a shard accumulates
// before compacting them into a snapshot. Snapshots bound both log
// growth and replay time; the write happens under the shard store lock
// but touches only outstanding grants, so it stays small even at load.
const DefaultSnapshotEvery = 8192

// GrantStore tracks one shard's outstanding permits: which device
// holds a grant, for which cell, until when. Every state change is
// appended to a write-ahead log first (when the store is durable), so
// a crashed daemon replays back to exactly the state it died with —
// modulo the TTL expiries that genuinely lapsed while it was down.
//
// Expiry is lazy: the state's expiry index (wal.State.ExpireDue) is
// drained at the top of every mutation (and by ExpireDue), so TTL
// lapses are observed in (expiry, device, cell) order without a
// background timer. The store keeps no index of its own: one map lookup
// finds a decision's grant, and the state folds the record into that
// grant in place.
//
// The unit of work is a slice of decisions, not a decision: one lock,
// one clock read, one expiry drain, every record staged into the log's
// buffer and written with one write(2) (RecordDecisions; RecordDecision
// is a slice of one).
type GrantStore struct {
	mu    sync.Mutex
	log   *wal.Log // nil for a memory-only store
	state *wal.State
	clk   clock.Clock

	metrics       Metrics
	snapshotEvery int
	sinceSnapshot int
	walErrs       int64
	// staged counts, by op, the records staged in the log and not yet
	// committed.
	staged [wal.OpExpire + 1]int

	recovery Recovery
}

// Recovery describes one shard's boot-time WAL replay — the numbers
// /debug/shards exposes and the chaos harness cross-checks.
type Recovery struct {
	// RecoveredGrants is how many outstanding grants survived replay
	// (after expiring those whose TTL lapsed during the outage).
	RecoveredGrants int `json:"recovered_grants"`
	// ExpiredOnRecovery is how many replayed grants had lapsed while
	// the daemon was down and were expired at the recovery instant.
	ExpiredOnRecovery int `json:"expired_on_recovery"`
	// RecoveredAt is the recovery instant in Unix nanoseconds: grants
	// with Expiry > RecoveredAt survived, the rest expired. An
	// independent replay of the same WAL filtered at this instant must
	// reproduce StateHash exactly.
	RecoveredAt int64 `json:"recovered_at_unixnano"`
	// StateHash is the SHA-256 of the canonical state marshal at the
	// recovery instant.
	StateHash string `json:"state_hash"`
	// Seconds is the wall time the replay took.
	Seconds float64 `json:"seconds"`
	// WAL carries the raw replay stats (snapshot seq, records
	// replayed/skipped, torn bytes).
	WAL wal.RecoveryStats `json:"wal"`
}

// NewGrantStore returns a memory-only store: grant state is tracked
// (so /debug/shards reports outstanding permits) but nothing survives
// the process.
func NewGrantStore(clk clock.Clock, m Metrics) *GrantStore {
	return &GrantStore{
		state:   wal.NewState(),
		clk:     clock.Or(clk),
		metrics: m,
	}
}

// OpenGrantStore recovers a durable store from dir: load the snapshot,
// replay the log, truncate any torn tail, expire grants that lapsed
// during the outage, and immediately compact into a fresh snapshot so
// the next recovery starts from here. snapshotEvery <= 0 selects
// DefaultSnapshotEvery.
//
//3golvet:allow ctxprop — boot-time recovery: runs before any request exists to carry a context, and replay must complete or fail atomically
func OpenGrantStore(dir string, clk clock.Clock, m Metrics, snapshotEvery int) (*GrantStore, error) {
	if snapshotEvery <= 0 {
		snapshotEvery = DefaultSnapshotEvery
	}
	c := clock.Or(clk)
	t0 := c.Now()
	log, state, stats, err := wal.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	s := &GrantStore{
		log:           log,
		state:         state,
		clk:           c,
		metrics:       m,
		snapshotEvery: snapshotEvery,
	}
	recoveredAt := c.Now().UnixNano()
	expired := state.ExpireDue(recoveredAt)
	for _, g := range expired {
		// The lapse happened while the daemon was down; record it so
		// replay-of-the-replay converges instead of re-expiring. The
		// record folds like any other (ExpireDue already dropped the
		// grant, so only the seq and expiry counter move): the snapshot
		// written below then carries exactly the counters an independent
		// replay of these records would reach, keeping compaction
		// equivalent to the fold it replaces.
		rec, err := log.Stage(wal.OpExpire, g.Device, g.Cell, recoveredAt, 0)
		if err != nil {
			log.Close()
			return nil, err
		}
		state.ApplyTo(nil, rec)
	}
	if err := log.Commit(); err != nil {
		log.Close()
		return nil, err
	}
	// Compact immediately: recovery cost never compounds across
	// restarts, and the recovered state is durably pinned.
	if err := log.WriteSnapshot(state); err != nil {
		log.Close()
		return nil, err
	}
	s.recovery = Recovery{
		RecoveredGrants:   len(state.Grants),
		ExpiredOnRecovery: len(expired),
		RecoveredAt:       recoveredAt,
		StateHash:         HashState(state),
		Seconds:           c.Since(t0).Seconds(),
		WAL:               stats,
	}
	m.walRecovered(len(state.Grants), len(expired), stats)
	return s, nil
}

// Durable reports whether the store has a WAL behind it.
func (s *GrantStore) Durable() bool { return s.log != nil }

// Recovery returns the boot-time replay stats (zero for memory-only
// stores and fresh directories).
func (s *GrantStore) Recovery() Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// RecordDecision folds one permit decision into the grant state: a
// slice of one through RecordDecisions.
//
//3golvet:allow ctxprop — the WAL append must stay ordered with the decision it records; cancelling it mid-write would desynchronise log and state
func (s *GrantStore) RecordDecision(device, cell string, granted bool, ttlSeconds float64) {
	s.RecordDecisions(
		[]PermitRequest{{Device: device, Cell: cell}},
		[]permit.Response{{Granted: granted, TTLSeconds: ttlSeconds}},
		[]int{0})
}

// RecordDecisions folds the decisions resps[i] on reqs[i], for each i
// of indices in that order, into the grant state as one unit. A granted
// decision creates or refreshes the device's outstanding permit for its
// TTL; a denial revokes any permit the device still held (its cell
// filled up — the operator's signal to stop onloading). State is
// applied record by record, so the same device twice in one slice is
// grant-then-refresh. Decisions with no device identity cannot be
// tracked and are ignored; a slice of nothing else leaves the store
// untouched.
//
// The records reach the log with one write: a failed write loses the
// slice's durability as a whole (one WAL error; the state still
// advances, see applyLocked). Callers serve the decisions only after
// RecordDecisions returned — append-before-serve at slice granularity.
//
//3golvet:allow ctxprop — the WAL append must stay ordered with the decisions it records; cancelling it mid-write would desynchronise log and state
func (s *GrantStore) RecordDecisions(reqs []PermitRequest, resps []permit.Response, indices []int) {
	if s == nil {
		return
	}
	// The first tracked decision takes the lock, reads the clock and
	// observes the lapses; a slice without one must not (an expiry is
	// recorded at the instant it is observed).
	for k, i := range indices {
		if s.tracked(reqs[i]) {
			s.recordFrom(reqs, resps, indices[k:])
			return
		}
	}
}

// tracked reports whether a decision on pr can be recorded.
func (s *GrantStore) tracked(pr PermitRequest) bool {
	if pr.Device == "" {
		return false
	}
	if len(pr.Device) > wal.MaxIDLen || len(pr.Cell) > wal.MaxIDLen {
		// An oversized ID can be framed neither in a WAL record nor in
		// a snapshot (both carry uint16 length fields); even holding it
		// in memory would poison the next snapshot. The decision goes
		// untracked, like one with no device identity.
		s.metrics.OversizedIDs.Inc()
		return false
	}
	return true
}

// recordFrom is RecordDecisions from the slice's first tracked decision
// (indices[0]) on.
func (s *GrantStore) recordFrom(reqs []PermitRequest, resps []permit.Response, indices []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clk.Now()
	s.drainLocked(now.UnixNano())
	for k, i := range indices {
		if k == 0 || s.tracked(reqs[i]) {
			s.foldLocked(now, reqs[i].Device, reqs[i].Cell, resps[i].Granted, resps[i].TTLSeconds)
		}
	}
	s.commitLocked() //3golvet:allow lockio — the slice's one WAL write is the durability point: it must stay ordered with the state mutations it records, under the per-shard lock; bounded local file I/O
	s.metrics.OutstandingGrants.Set(float64(len(s.state.Grants)))
	s.maybeSnapshotLocked() //3golvet:allow lockio — compaction must see exactly the state the log it truncates recorded, under the per-shard lock; bounded local file I/O
}

// foldLocked stages and applies one tracked decision made at now. Its
// one hash is the lookup of the decision's grant, which the state then
// updates in place; the key stays on the stack, and only a first grant
// has to keep one.
func (s *GrantStore) foldLocked(now time.Time, device, cell string, granted bool, ttlSeconds float64) {
	g := s.state.Grants[wal.Key(device, cell)]
	switch {
	case granted:
		op := wal.OpGrant
		if g != nil {
			op = wal.OpRefresh
		}
		expiry := now.Add(time.Duration(ttlSeconds * float64(time.Second))).UnixNano()
		s.applyLocked(g, op, device, cell, now.UnixNano(), expiry)
	case g != nil:
		s.applyLocked(g, wal.OpRevoke, device, cell, now.UnixNano(), 0)
	}
}

// ExpireDue retires every grant whose TTL has lapsed. Mutating calls
// do this implicitly; daemons may also call it from a housekeeping
// tick so idle shards shed state.
//
//3golvet:allow ctxprop — expiry records must land in the WAL whenever observed; no caller's cancellation should skip them
func (s *GrantStore) ExpireDue() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked() //3golvet:allow lockio — the expiries' one WAL write is the durability point: it must stay ordered with the state mutations it records, under the per-shard lock; bounded local file I/O
	s.metrics.OutstandingGrants.Set(float64(len(s.state.Grants)))
}

// expireLocked observes the TTL lapses due by now as a unit of their
// own: drain, then one WAL write.
func (s *GrantStore) expireLocked() {
	s.drainLocked(s.clk.Now().UnixNano())
	s.commitLocked()
}

// drainLocked takes the due grants out of the state in deterministic
// (expiry, device, cell) order, staging one OpExpire record each; the
// caller commits.
func (s *GrantStore) drainLocked(now int64) {
	for _, g := range s.state.ExpireDue(now) {
		s.applyLocked(nil, wal.OpExpire, g.Device, g.Cell, now, 0)
	}
}

// applyLocked stages the record (durable stores) and folds it into the
// in-memory state, where g is the grant it acts on (nil if none);
// nothing is observable until the caller committed and released the
// lock. A record the log refuses to stage (sealed) is counted and the
// state still advances: a daemon with a full disk keeps serving
// decisions, degraded to memory-only durability, rather than going
// dark.
func (s *GrantStore) applyLocked(g *wal.Grant, op wal.Op, device, cell string, at, expiry int64) {
	if s.log != nil {
		rec, err := s.log.Stage(op, device, cell, at, expiry)
		if err == nil {
			s.state.ApplyTo(g, rec)
			s.staged[op]++
			return
		}
		s.walErrs++
		s.metrics.WALErrors.Inc()
	}
	// Memory-only fold (or degraded durability): synthesise the seq.
	s.state.ApplyTo(g, wal.Record{
		Seq: s.state.Seq + 1, Op: op, At: at, Expiry: expiry, Device: device, Cell: cell,
	})
	if s.log != nil {
		// Keep the log's sequence counter aligned with the state's: a
		// snapshot may persist the synthesised (higher) seq, and a later
		// successful append that reused a lower number would be skipped
		// on replay as already covered by that snapshot.
		s.log.SkipTo(s.state.Seq)
	}
}

// commitLocked writes the staged records with one write(2). A failed
// write is one WAL error however many records it carried: the log
// rewound them as a unit and keeps their sequence numbers spent, so the
// state that already folded them stays aligned with later appends.
func (s *GrantStore) commitLocked() {
	if s.log == nil {
		return
	}
	err := s.log.Commit()
	for op, n := range s.staged {
		if n > 0 && err == nil {
			s.sinceSnapshot += n
			s.metrics.WALRecords.With(wal.Op(op).String()).Add(int64(n))
		}
		s.staged[op] = 0
	}
	if err != nil {
		s.walErrs++
		s.metrics.WALErrors.Inc()
	}
}

// maybeSnapshotLocked compacts once enough records accumulated.
func (s *GrantStore) maybeSnapshotLocked() {
	if s.log == nil || s.sinceSnapshot < s.snapshotEvery {
		return
	}
	s.snapshotLocked()
}

func (s *GrantStore) snapshotLocked() {
	if err := s.log.WriteSnapshot(s.state); err != nil {
		s.walErrs++
		s.metrics.WALErrors.Inc()
		return
	}
	s.sinceSnapshot = 0
	s.metrics.WALSnapshots.Inc()
}

// Snapshot flushes the current state to disk immediately — the
// graceful-drain hook. Memory-only stores no-op.
//
//3golvet:allow ctxprop — shutdown-path flush: runs after request serving stopped, must not be cancellable
func (s *GrantStore) Snapshot() {
	if s == nil || s.log == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()   //3golvet:allow lockio — the expiries' one WAL write is the durability point: it must stay ordered with the state mutations it records, under the per-shard lock; bounded local file I/O
	s.snapshotLocked() //3golvet:allow lockio — compaction must see exactly the state the log it truncates recorded, under the per-shard lock; bounded local file I/O
}

// Close flushes a final snapshot and closes the log.
//
//3golvet:allow ctxprop — shutdown-path flush: runs after request serving stopped, must not be cancellable
func (s *GrantStore) Close() error {
	if s == nil || s.log == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()     //3golvet:allow lockio — the expiries' one WAL write is the durability point: it must stay ordered with the state mutations it records, under the per-shard lock; bounded local file I/O
	s.snapshotLocked()   //3golvet:allow lockio — compaction must see exactly the state the log it truncates recorded, under the per-shard lock; bounded local file I/O
	return s.log.Close() //3golvet:allow lockio — final close under the shard lock; nothing can contend after drain
}

// Outstanding reports the live (unexpired) grant count.
//
//3golvet:allow ctxprop — the only I/O is lazy expiry's WAL appends, which must not be skippable by cancellation
func (s *GrantStore) Outstanding() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked() //3golvet:allow lockio — the expiries' one WAL write is the durability point: it must stay ordered with the state mutations it records, under the per-shard lock; bounded local file I/O
	return len(s.state.Grants)
}

// Seq reports the last applied WAL sequence number.
func (s *GrantStore) Seq() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Seq
}

// StateHash reports the SHA-256 of the canonical state marshal after
// expiring due grants — the cheap way for two observers to agree on an
// entire shard's grant state.
//
//3golvet:allow ctxprop — the only I/O is lazy expiry's WAL appends, which must not be skippable by cancellation
func (s *GrantStore) StateHash() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked() //3golvet:allow lockio — the expiries' one WAL write is the durability point: it must stay ordered with the state mutations it records, under the per-shard lock; bounded local file I/O
	return HashState(s.state)
}

// WALErrors reports how many WAL writes failed (durability degraded).
func (s *GrantStore) WALErrors() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walErrs
}

// HashState is the SHA-256 of a state's canonical marshal — the same
// digest StateHash and Recovery.StateHash report, exported so an
// independent replayer (the chaos harness) can compare entire shard
// states by fingerprint.
func HashState(st *wal.State) string {
	sum := sha256.Sum256(st.Marshal())
	return hex.EncodeToString(sum[:])
}

// ShardWALDir names the per-shard WAL directory under a plane's root:
// <root>/shard-<index>. One function shared by the daemon and the
// chaos harness, so the independent replay always looks where the
// daemon wrote.
func ShardWALDir(root string, shard int) string {
	return fmt.Sprintf("%s/shard-%d", root, shard)
}
