package permitplane

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"threegol/internal/obs"
	"threegol/internal/permitplane/wal"
)

func storeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func TestGrantStoreExpiryHeap(t *testing.T) {
	clk := storeClock()
	s := NewGrantStore(clk, Metrics{})

	s.RecordDecision("d1", "bs0/s0", true, 10)
	s.RecordDecision("d2", "bs0/s1", true, 20)
	s.RecordDecision("d3", "bs0/s2", true, 30)
	if got := s.Outstanding(); got != 3 {
		t.Fatalf("outstanding = %d, want 3", got)
	}

	// d1's 10s TTL lapses; the others survive.
	clk.advance(11 * time.Second)
	if got := s.Outstanding(); got != 2 {
		t.Errorf("outstanding after d1 lapse = %d, want 2", got)
	}

	// Refresh d2 before its 20s lapse: its index entry moves to the new
	// expiry, and the old one must NOT expire the refreshed grant.
	clk.advance(5 * time.Second) // t = +16s; d2's original expiry is +20s
	s.RecordDecision("d2", "bs0/s1", true, 60)
	clk.advance(10 * time.Second) // t = +26s; past the original expiry
	if got := s.Outstanding(); got != 2 {
		t.Errorf("the original expiry took a refreshed grant: outstanding = %d, want 2", got)
	}

	// d3 lapses at +30s, refreshed d2 at +16+60s.
	clk.advance(10 * time.Second)
	if got := s.Outstanding(); got != 1 {
		t.Errorf("outstanding after d3 lapse = %d, want 1", got)
	}
	clk.advance(60 * time.Second)
	if got := s.Outstanding(); got != 0 {
		t.Errorf("outstanding after all lapse = %d, want 0", got)
	}
}

func TestGrantStoreRevokeOnDenial(t *testing.T) {
	clk := storeClock()
	s := NewGrantStore(clk, Metrics{})
	s.RecordDecision("d1", "bs0/s0", true, 100)
	if got := s.Outstanding(); got != 1 {
		t.Fatalf("outstanding = %d, want 1", got)
	}
	// The cell filled up: a denial revokes the held grant immediately.
	s.RecordDecision("d1", "bs0/s0", false, 0)
	if got := s.Outstanding(); got != 0 {
		t.Errorf("outstanding after revoke = %d, want 0", got)
	}
	// A denial for a device holding nothing is a no-op.
	s.RecordDecision("d2", "bs0/s0", false, 0)
	if got := s.Seq(); got != 2 {
		t.Errorf("seq = %d, want 2 (grant + revoke only)", got)
	}
}

func TestGrantStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	clk := storeClock()

	s, err := OpenGrantStore(dir, clk, Metrics{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.RecordDecision("short", "bs0/s0", true, 10)
	s.RecordDecision("long", "bs0/s1", true, 1000)
	s.RecordDecision("gone", "bs0/s2", true, 1000)
	s.RecordDecision("gone", "bs0/s2", false, 0) // revoked
	preHash := s.StateHash()
	// Crash: no Close, no snapshot — the WAL alone must carry the state.

	// The outage outlives short's TTL.
	clk.advance(60 * time.Second)
	r, err := OpenGrantStore(dir, clk, Metrics{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := r.Recovery()
	if rec.RecoveredGrants != 1 {
		t.Errorf("recovered %d grants, want 1 (long)", rec.RecoveredGrants)
	}
	if rec.ExpiredOnRecovery != 1 {
		t.Errorf("expired %d on recovery, want 1 (short)", rec.ExpiredOnRecovery)
	}
	if rec.StateHash == "" || rec.StateHash == preHash {
		t.Errorf("recovery hash %q should differ from pre-crash hash %q (short expired)", rec.StateHash, preHash)
	}
	if rec.StateHash != r.StateHash() {
		t.Errorf("recovery hash %q != live hash %q", rec.StateHash, r.StateHash())
	}
	if got := r.Outstanding(); got != 1 {
		t.Errorf("outstanding after recovery = %d, want 1", got)
	}
	if rec.WAL.RecordsReplayed != 4 {
		t.Errorf("replayed %d records, want 4", rec.WAL.RecordsReplayed)
	}

	// An independent read-only replay filtered at the recovery instant
	// must agree.
	st, _, err := wal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.ExpireDue(rec.RecoveredAt)
	if got := HashState(st); got != rec.StateHash {
		t.Errorf("independent replay hash %q != recovery hash %q", got, rec.StateHash)
	}
}

// TestGrantStoreIgnoresOversizedIDs pins the edge guard: an ID too
// long for the WAL's uint16 length fields must never enter the grant
// state — framed, it would poison the log; held in memory, the next
// snapshot.
func TestGrantStoreIgnoresOversizedIDs(t *testing.T) {
	dir := t.TempDir()
	clk := storeClock()
	m := NewMetrics(obs.NewRegistry())
	s, err := OpenGrantStore(dir, clk, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	huge := strings.Repeat("x", wal.MaxIDLen+1)
	s.RecordDecision(huge, "bs0/s0", true, 100)
	s.RecordDecision("d1", huge, true, 100)
	if got := s.Outstanding(); got != 0 {
		t.Errorf("outstanding = %d, want 0 — an oversized ID was tracked", got)
	}
	if got := s.WALErrors(); got != 0 {
		t.Errorf("WAL errors = %d, want 0 — the oversized ID reached the log", got)
	}
	if got := m.OversizedIDs.With().Value(); got != 2 {
		t.Errorf("oversized-ID counter = %d, want 2", got)
	}
	// Tracking continues normally afterwards, and the WAL replays clean.
	s.RecordDecision("d1", "bs0/s0", true, 100)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, stats, err := wal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornBytes != 0 || len(st.Grants) != 1 {
		t.Errorf("replay: %d torn bytes, %d grants, want 0 and 1", stats.TornBytes, len(st.Grants))
	}
}

// TestGrantStoreRecoveryExpiryCounted pins snapshot/replay counter
// equivalence: the expire records recovery appends fold through Apply,
// so the compacted snapshot carries the same cumulative counters an
// independent replay of those records reaches.
func TestGrantStoreRecoveryExpiryCounted(t *testing.T) {
	dir := t.TempDir()
	clk := storeClock()
	s, err := OpenGrantStore(dir, clk, Metrics{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.RecordDecision("short", "bs0/s0", true, 10)
	s.RecordDecision("long", "bs0/s1", true, 1000)
	// Crash without Close; the outage outlives short's TTL.
	clk.advance(60 * time.Second)
	r, err := OpenGrantStore(dir, clk, Metrics{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := r.Recovery()
	if rec.ExpiredOnRecovery != 1 {
		t.Fatalf("expired %d on recovery, want 1", rec.ExpiredOnRecovery)
	}
	st, _, err := wal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalExpiries != 1 {
		t.Errorf("snapshot carries %d total expiries, want 1 — recovery expiry bypassed the counter fold", st.TotalExpiries)
	}
	if got := HashState(st); got != rec.StateHash {
		t.Errorf("independent replay hash %q != recovery hash %q", got, rec.StateHash)
	}
}

func TestGrantStoreSnapshotOnClose(t *testing.T) {
	dir := t.TempDir()
	clk := storeClock()
	s, err := OpenGrantStore(dir, clk, Metrics{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.RecordDecision("d1", "bs0/s0", true, 1000)
	s.RecordDecision("d2", "bs0/s1", true, 1000)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A clean close compacted everything into the snapshot: reopening
	// replays zero log records.
	r, err := OpenGrantStore(dir, clk, Metrics{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := r.Recovery()
	if rec.WAL.RecordsReplayed != 0 {
		t.Errorf("replayed %d log records after clean close, want 0 (snapshot covers all)", rec.WAL.RecordsReplayed)
	}
	if rec.RecoveredGrants != 2 {
		t.Errorf("recovered %d grants, want 2", rec.RecoveredGrants)
	}
}

func TestGrantStoreSnapshotEvery(t *testing.T) {
	dir := t.TempDir()
	clk := storeClock()
	s, err := OpenGrantStore(dir, clk, Metrics{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.RecordDecision("d", "bs0/s0", true, 1000)
	}
	// 10 records with snapshotEvery=4: compactions at 4 and 8, leaving
	// at most 2 records in the live log.
	st, stats, err := wal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotSeq == 0 {
		t.Error("no snapshot written despite snapshotEvery=4")
	}
	if stats.RecordsReplayed > 3 {
		t.Errorf("%d records in live log, want <= 3 after periodic compaction", stats.RecordsReplayed)
	}
	if len(st.Grants) != 1 {
		t.Errorf("replayed %d grants, want 1", len(st.Grants))
	}
}

// seededStoreRun drives a durable store through a seeded mix of grants,
// refreshes, denials and TTL lapses (TTLs of whole seconds on a clock
// stepping in half seconds, so expiries tie and the (expiry, device,
// cell) order decides) and returns the store, still open.
func seededStoreRun(t *testing.T, dir string, devices, steps int) *GrantStore {
	t.Helper()
	clk := storeClock()
	s, err := OpenGrantStore(dir, clk, Metrics{}, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < steps; i++ {
		d := rng.Intn(devices)
		device, cell := fmt.Sprintf("dev-%03d", d), fmt.Sprintf("cell-%d", d%7)
		switch r := rng.Intn(10); {
		case r < 7:
			s.RecordDecision(device, cell, true, float64(1+rng.Intn(4)))
		case r < 8:
			s.RecordDecision(device, cell, false, 0)
		default:
			clk.advance(500 * time.Millisecond)
			s.ExpireDue()
		}
	}
	return s
}

// TestGrantStoreWALBytesPinned pins the log a seeded run writes, byte
// for byte, to what the one-write-per-record store with its
// push-per-refresh heap wrote: staging, the in-place heap and the
// batched commit change when bytes reach the file, never which.
func TestGrantStoreWALBytesPinned(t *testing.T) {
	dir := t.TempDir()
	s := seededStoreRun(t, dir, 40, 4000)
	logBytes, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(logBytes)
	const want = "469b45ba0f9800b295815b6bf420331870d76453023eb8a9bfa872dd4e30404a"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("seeded run wrote %d WAL bytes hashing to %s, want %s", len(logBytes), got, want)
	}
	replayed := mustReplay(t, dir)
	if got, want := HashState(replayed), s.StateHash(); got != want {
		t.Errorf("replayed state hashes to %s, live store to %s", got, want)
	}
	if replayed.TotalRefreshes == 0 || replayed.TotalRevokes == 0 || replayed.TotalExpiries == 0 {
		t.Errorf("seeded run made %d refreshes, %d revokes, %d expiries; the pin needs all three",
			replayed.TotalRefreshes, replayed.TotalRevokes, replayed.TotalExpiries)
	}
}

// TestGrantStoreHeapHoldsOneEntryPerGrant pins the expiry index's
// bound: a refresh moves its grant in place, so however often G grants
// are refreshed the index holds G entries in at most G buckets — not
// one per refresh waiting out a TTL. Check proves both: every grant
// indexed exactly once, no bucket empty.
func TestGrantStoreHeapHoldsOneEntryPerGrant(t *testing.T) {
	const grants, rounds = 64, 50
	clk := storeClock()
	s := NewGrantStore(clk, Metrics{})
	for round := 0; round < rounds; round++ {
		for d := 0; d < grants; d++ {
			s.RecordDecision(fmt.Sprintf("dev-%02d", d), "cell", true, 3600)
		}
		clk.advance(time.Second)
	}
	if err := s.state.Check(); err != nil || len(s.state.Grants) != grants {
		t.Fatalf("after %d refreshes of %d grants: %d held, index check: %v", rounds-1, grants, len(s.state.Grants), err)
	}
	// Revokes and lapses take their entries with them.
	s.RecordDecision("dev-00", "cell", false, 0)
	clk.advance(2 * time.Hour)
	if got := s.Outstanding(); got != 0 {
		t.Errorf("after revoke and lapse: %d outstanding, want 0", got)
	}
	if err := s.state.Check(); err != nil {
		t.Errorf("after revoke and lapse: %v", err)
	}
}

// TestGrantKeysNeverCollide pins the grant key's injectivity: a NUL
// inside an ID must not let two different (device, cell) pairs share a
// grant. Both IDs reach the store — a GET /permit query carries %00, the
// batch route's encoding/json fallback \u0000.
func TestGrantKeysNeverCollide(t *testing.T) {
	dir := t.TempDir()
	clk := storeClock()
	s, err := OpenGrantStore(dir, clk, Metrics{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RecordDecision("a\x00b", "c", true, 100)
	s.RecordDecision("a", "b\x00c", true, 100)
	if got := s.Outstanding(); got != 2 {
		t.Fatalf("outstanding = %d, want 2 — two permits share one grant", got)
	}
	s.RecordDecision("a", "b\x00c", false, 0)
	if got := s.Outstanding(); got != 1 {
		t.Errorf("outstanding after revoking one = %d, want 1", got)
	}
	if got, want := HashState(mustReplay(t, dir)), s.StateHash(); got != want {
		t.Errorf("replayed state hashes to %s, live store to %s", got, want)
	}
}

func mustReplay(t *testing.T, dir string) *wal.State {
	t.Helper()
	st, _, err := wal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
