package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testRecords is a mixed lifecycle: grants, refreshes, a revoke, an
// expiry, and a re-grant of an expired device.
func testRecords() []Record {
	return []Record{
		{Op: OpGrant, At: 100, Expiry: 1100, Device: "d1", Cell: "bs0/s0"},
		{Op: OpGrant, At: 110, Expiry: 1110, Device: "d2", Cell: "bs0/s1"},
		{Op: OpGrant, At: 120, Expiry: 1120, Device: "d3", Cell: "bs1/s0"},
		{Op: OpRefresh, At: 600, Expiry: 1600, Device: "d1", Cell: "bs0/s0"},
		{Op: OpRevoke, At: 700, Device: "d2", Cell: "bs0/s1"},
		{Op: OpExpire, At: 1120, Device: "d3", Cell: "bs1/s0"},
		{Op: OpGrant, At: 1200, Expiry: 2200, Device: "d3", Cell: "bs1/s0"},
	}
}

// appendAll writes recs through a fresh log in dir, one record per
// commit, and returns the stamped records.
func appendAll(t *testing.T, dir string, recs []Record) []Record {
	t.Helper()
	return commitAll(t, dir, recs, 1)
}

// commitAll writes recs through a fresh log in dir, perCommit records
// to a commit, and returns the stamped records.
func commitAll(t *testing.T, dir string, recs []Record, perCommit int) []Record {
	t.Helper()
	l, _, _, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	out := make([]Record, len(recs))
	for i, r := range recs {
		if out[i], err = l.Stage(r.Op, r.Device, r.Cell, r.At, r.Expiry); err != nil {
			t.Fatal(err)
		}
		if (i+1)%perCommit == 0 || i == len(recs)-1 {
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

func TestRoundTripThroughReopen(t *testing.T) {
	dir := t.TempDir()
	stamped := appendAll(t, dir, testRecords())

	want := NewState()
	for _, r := range stamped {
		want.Apply(r)
	}

	l, st, stats, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if stats.RecordsReplayed != int64(len(stamped)) {
		t.Errorf("replayed %d records, want %d", stats.RecordsReplayed, len(stamped))
	}
	if !bytes.Equal(st.Marshal(), want.Marshal()) {
		t.Errorf("reopened state diverged:\ngot:\n%s\nwant:\n%s", st.Marshal(), want.Marshal())
	}
	if l.Seq() != stamped[len(stamped)-1].Seq {
		t.Errorf("Seq() = %d, want %d", l.Seq(), stamped[len(stamped)-1].Seq)
	}
}

// TestKillAtEveryByteBoundary is the torn-tail pin: cutting the log at
// any byte must reconstruct exactly the state of the longest valid
// record prefix — never an error, never a partial record applied. A
// commit of several records is one write(2) and can be cut anywhere
// inside it, so the log is written three records to a commit: the cut
// still recovers a record prefix, not a commit prefix, and the bytes
// are those of one-record commits.
func TestKillAtEveryByteBoundary(t *testing.T) {
	full := t.TempDir()
	stamped := commitAll(t, full, testRecords(), 3)
	logBytes, err := os.ReadFile(filepath.Join(full, logName))
	if err != nil {
		t.Fatal(err)
	}
	singles := t.TempDir()
	appendAll(t, singles, testRecords())
	if one, err := os.ReadFile(filepath.Join(singles, logName)); err != nil || !bytes.Equal(one, logBytes) {
		t.Fatalf("three-record commits wrote different bytes than one-record commits (read err %v)", err)
	}

	// Valid prefix states: prefixState[k] is the state after the first
	// k whole records.
	prefixState := make([][]byte, len(stamped)+1)
	st := NewState()
	prefixState[0] = st.Marshal()
	frameEnd := make([]int, len(stamped)+1)
	off := 0
	for k, r := range stamped {
		st.Apply(r)
		prefixState[k+1] = st.Marshal()
		_, n, err := decodeFrame(logBytes[off:])
		if err != nil {
			t.Fatalf("frame %d undecodable in full log: %v", k, err)
		}
		off += n
		frameEnd[k+1] = off
	}
	if off != len(logBytes) {
		t.Fatalf("frames cover %d of %d log bytes", off, len(logBytes))
	}

	for cut := 0; cut <= len(logBytes); cut++ {
		// The kill point falls inside record k+1 (or exactly after
		// record k): the longest valid prefix is the last frameEnd at
		// or before cut.
		whole := 0
		for k := 1; k <= len(stamped); k++ {
			if frameEnd[k] <= cut {
				whole = k
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), logBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		// Read-only replay and read-write open must agree.
		replayed, rstats, err := Replay(dir)
		if err != nil {
			t.Fatalf("cut %d: Replay: %v", cut, err)
		}
		if !bytes.Equal(replayed.Marshal(), prefixState[whole]) {
			t.Fatalf("cut %d: Replay state != %d-record prefix state", cut, whole)
		}
		wantTorn := int64(cut - frameEnd[whole])
		if rstats.TornBytes != wantTorn {
			t.Fatalf("cut %d: Replay torn bytes %d, want %d", cut, rstats.TornBytes, wantTorn)
		}

		l, opened, ostats, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if !bytes.Equal(opened.Marshal(), prefixState[whole]) {
			t.Fatalf("cut %d: Open state != %d-record prefix state", cut, whole)
		}
		if ostats.TornBytes != wantTorn {
			t.Fatalf("cut %d: Open torn bytes %d, want %d", cut, ostats.TornBytes, wantTorn)
		}

		// Appending after a truncation must land on a clean boundary: a
		// second replay sees the new record, not a corrupt splice.
		if _, err := l.Append(OpGrant, "fresh", "bs9/s9", 5000, 6000); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		again, astats, err := Replay(dir)
		if err != nil {
			t.Fatalf("cut %d: replay after append: %v", cut, err)
		}
		if astats.TornBytes != 0 {
			t.Fatalf("cut %d: %d torn bytes after truncate+append", cut, astats.TornBytes)
		}
		if _, ok := again.Grants[Key("fresh", "bs9/s9")]; !ok {
			t.Fatalf("cut %d: post-truncation append lost", cut)
		}
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	l, st, _, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords() {
		stamped, err := l.Append(r.Op, r.Device, r.Cell, r.At, r.Expiry)
		if err != nil {
			t.Fatal(err)
		}
		st.Apply(stamped)
	}
	if err := l.WriteSnapshot(st); err != nil {
		t.Fatal(err)
	}
	if size, err := l.Size(); err != nil || size != 0 {
		t.Fatalf("log size after compaction = %d (%v), want 0", size, err)
	}
	// Post-compaction appends land in the fresh log.
	stamped, err := l.Append(OpGrant, "d9", "bs2/s0", 2000, 3000)
	if err != nil {
		t.Fatal(err)
	}
	st.Apply(stamped)
	want := st.Marshal()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, reopened, stats, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotSeq == 0 || stats.SnapshotGrants != 2 {
		t.Errorf("snapshot stats %+v, want seq>0 and 2 grants", stats)
	}
	if stats.RecordsReplayed != 1 {
		t.Errorf("replayed %d records after compaction, want 1", stats.RecordsReplayed)
	}
	if !bytes.Equal(reopened.Marshal(), want) {
		t.Errorf("state after snapshot+append reopen diverged:\ngot:\n%s\nwant:\n%s", reopened.Marshal(), want)
	}
}

// TestCrashBetweenSnapshotAndTruncate pins the seq guard: when the
// snapshot renamed but the log survived un-truncated, replay must skip
// the covered records instead of double-applying them.
func TestCrashBetweenSnapshotAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, st, _, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords() {
		stamped, err := l.Append(r.Op, r.Device, r.Cell, r.At, r.Expiry)
		if err != nil {
			t.Fatal(err)
		}
		st.Apply(stamped)
	}
	// Simulate the crash: write the snapshot by hand, leave the log.
	if err := os.WriteFile(filepath.Join(dir, snapName), st.marshalSnapshot(), 0o644); err != nil {
		t.Fatal(err)
	}
	want := st.Marshal()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, reopened, stats, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsSkipped != int64(len(testRecords())) {
		t.Errorf("skipped %d records, want all %d (covered by snapshot)", stats.RecordsSkipped, len(testRecords()))
	}
	if stats.RecordsReplayed != 0 {
		t.Errorf("replayed %d covered records — the seq guard failed", stats.RecordsReplayed)
	}
	if !bytes.Equal(reopened.Marshal(), want) {
		t.Errorf("state double-applied covered records:\ngot:\n%s\nwant:\n%s", reopened.Marshal(), want)
	}
}

func TestCorruptSnapshotFallsBackToLog(t *testing.T) {
	dir := t.TempDir()
	stamped := appendAll(t, dir, testRecords())
	if err := os.WriteFile(filepath.Join(dir, snapName), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := NewState()
	for _, r := range stamped {
		want.Apply(r)
	}
	l, st, stats, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("corrupt snapshot must not refuse startup: %v", err)
	}
	defer l.Close()
	if !stats.SnapshotCorrupt {
		t.Error("SnapshotCorrupt not reported")
	}
	if !bytes.Equal(st.Marshal(), want.Marshal()) {
		t.Errorf("fallback state diverged from pure log replay")
	}
}

func TestExpireDueDeterministicOrder(t *testing.T) {
	st := NewState()
	seq := uint64(0)
	add := func(dev string, expiry int64) {
		seq++
		st.Apply(Record{Seq: seq, Op: OpGrant, At: 0, Expiry: expiry, Device: dev, Cell: "c"})
	}
	// Two grants share an expiry: ties must break by device name.
	add("zeta", 100)
	add("alpha", 100)
	add("mid", 50)
	add("later", 200)

	due := st.ExpireDue(100)
	wantOrder := []string{"mid", "alpha", "zeta"}
	if len(due) != len(wantOrder) {
		t.Fatalf("%d grants expired, want %d", len(due), len(wantOrder))
	}
	for i, g := range due {
		if g.Device != wantOrder[i] {
			t.Errorf("expiry %d = %s, want %s", i, g.Device, wantOrder[i])
		}
	}
	if len(st.Grants) != 1 || st.Grants[Key("later", "c")].Device != "later" {
		t.Errorf("surviving grants %v, want only later", st.Grants)
	}
	if st.ExpireDue(100) != nil {
		t.Error("second ExpireDue at the same instant expired something")
	}
}

// TestAppendRejectsOversizedID pins the ID bound: an identifier too
// long for the frame's uint16 length fields must be rejected before
// anything hits the disk — written, it would decode as a torn tail and
// truncate every record appended after it.
func TestAppendRejectsOversizedID(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(OpGrant, "d1", "bs0/s0", 100, 1100); err != nil {
		t.Fatal(err)
	}

	huge := strings.Repeat("x", MaxIDLen+1)
	if _, err := l.Append(OpGrant, huge, "bs0/s0", 200, 1200); !errors.Is(err, ErrIDTooLong) {
		t.Fatalf("oversized device: err = %v, want ErrIDTooLong", err)
	}
	if _, err := l.Append(OpGrant, "d2", huge, 200, 1200); !errors.Is(err, ErrIDTooLong) {
		t.Fatalf("oversized cell: err = %v, want ErrIDTooLong", err)
	}
	// The rejections wrote nothing: later appends and replay are intact.
	if _, err := l.Append(OpGrant, "d2", "bs0/s1", 300, 1300); err != nil {
		t.Fatal(err)
	}
	st, stats, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornBytes != 0 {
		t.Errorf("%d torn bytes after rejected appends, want 0", stats.TornBytes)
	}
	if len(st.Grants) != 2 || st.Seq != 2 {
		t.Errorf("replayed %d grants seq %d, want 2 grants seq 2", len(st.Grants), st.Seq)
	}
	// An ID at exactly the bound is fine and well under maxPayload.
	max := strings.Repeat("y", MaxIDLen)
	if _, err := l.Append(OpGrant, max, max, 400, 1400); err != nil {
		t.Errorf("MaxIDLen-sized IDs rejected: %v", err)
	}
}

// TestSkipToKeepsReplayAligned pins the degraded-fold sequence
// contract: when the store folds a record the log could not append, a
// snapshot persists the synthesised (higher) seq — later successful
// appends must number above it, or replay skips them as covered.
func TestSkipToKeepsReplayAligned(t *testing.T) {
	dir := t.TempDir()
	l, st, _, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	stamped, err := l.Append(OpGrant, "d1", "bs0/s0", 100, 1100)
	if err != nil {
		t.Fatal(err)
	}
	st.Apply(stamped)

	// A degraded fold: the record never reached the log, but the state
	// consumed seq 2 — and SkipTo tells the log so.
	st.Apply(Record{Seq: st.Seq + 1, Op: OpGrant, At: 200, Expiry: 1200, Device: "d2", Cell: "bs0/s1"})
	l.SkipTo(st.Seq)
	if err := l.WriteSnapshot(st); err != nil {
		t.Fatal(err)
	}

	// The next durable record must not sort at or below the snapshot's
	// seq 2.
	after, err := l.Append(OpGrant, "d3", "bs0/s2", 300, 1300)
	if err != nil {
		t.Fatal(err)
	}
	if after.Seq != 3 {
		t.Fatalf("post-degradation append got seq %d, want 3 (> snapshot seq 2)", after.Seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, stats, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsSkipped != 0 || stats.RecordsReplayed != 1 {
		t.Errorf("replay skipped %d / applied %d records, want 0 skipped, 1 applied", stats.RecordsSkipped, stats.RecordsReplayed)
	}
	if _, ok := replayed.Grants[Key("d3", "bs0/s2")]; !ok {
		t.Error("durably written post-degradation record vanished on replay")
	}
}

// TestRewindRepairsPartialWrite pins the failed-append repair: partial
// frame bytes a failed write left behind are truncated back to the
// last frame boundary, so later appends land contiguously and replay
// loses nothing.
func TestRewindRepairsPartialWrite(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(OpGrant, "d1", "bs0/s0", 100, 1100); err != nil {
		t.Fatal(err)
	}
	// Simulate a write that failed partway through a frame (the exact
	// on-disk state Append's error path sees), then the repair.
	if _, err := l.f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	l.rewind()
	if l.sealed {
		t.Fatal("rewind sealed a repairable log")
	}
	if _, err := l.Append(OpGrant, "d2", "bs0/s1", 200, 1200); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, stats, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornBytes != 0 {
		t.Errorf("%d torn bytes after rewind, want 0 — partial write left mid-log garbage", stats.TornBytes)
	}
	if len(st.Grants) != 2 {
		t.Errorf("replayed %d grants, want 2 — records after the partial write were lost", len(st.Grants))
	}
}

// TestRewindRepairsPartialBatchWrite is the same repair for a commit of
// several records that failed partway: a whole frame and half of the
// next reached the file. The rewind takes the batch back as a unit —
// the whole frame too, since its commit was reported failed — and the
// batch's sequence numbers stay spent.
func TestRewindRepairsPartialBatchWrite(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(OpGrant, "d1", "bs0/s0", 100, 1100); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"b1", "b2", "b3"} {
		if _, err := l.Stage(OpGrant, d, "bs0/s1", 200, 1200); err != nil {
			t.Fatal(err)
		}
	}
	// The on-disk state Commit's error path sees after a short write,
	// then what that path does: rewind, drop the batch.
	_, frame, err := decodeFrame(l.staged)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.f.Write(l.staged[:frame+frame/2]); err != nil {
		t.Fatal(err)
	}
	l.rewind()
	l.staged, l.stagedN = l.staged[:0], 0
	if l.sealed {
		t.Fatal("rewind sealed a repairable log")
	}
	after, err := l.Append(OpGrant, "d2", "bs0/s2", 300, 1300)
	if err != nil {
		t.Fatal(err)
	}
	if after.Seq != 5 {
		t.Errorf("append after the failed batch got seq %d, want 5 — the batch's numbers 2..4 were handed out again", after.Seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, stats, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornBytes != 0 || stats.RecordsReplayed != 2 {
		t.Errorf("%d torn bytes, %d records replayed, want 0 and 2 (d1, d2; none of the batch)", stats.TornBytes, stats.RecordsReplayed)
	}
	if _, ok := st.Grants[Key("b1", "bs0/s1")]; ok {
		t.Error("a record of the failed batch survived the rewind")
	}
}

// TestSealedLogRefusesAppendsUntilSnapshot pins the last-resort path:
// when even the rewind fails, the log seals (no append may land after
// unrepaired partial bytes) and a successful snapshot — which empties
// the log — heals it.
func TestSealedLogRefusesAppendsUntilSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, st, _, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	stamped, err := l.Append(OpGrant, "d1", "bs0/s0", 100, 1100)
	if err != nil {
		t.Fatal(err)
	}
	st.Apply(stamped)

	// Swap in a read-only descriptor: the write fails, and so does the
	// repair truncate — the log must seal.
	good := l.f
	ro, err := os.Open(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	l.f = ro
	// The failing write is a batch: it fails, and seals, as a unit.
	for _, d := range []string{"d2", "d2b", "d2c"} {
		if _, err := l.Stage(OpGrant, d, "bs0/s1", 200, 1200); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err == nil {
		t.Fatal("commit on read-only log succeeded")
	}
	if !l.sealed {
		t.Fatal("unrepairable write failure did not seal the log")
	}
	if l.stagedN != 0 || len(l.staged) != 0 {
		t.Fatalf("failed commit left %d records staged", l.stagedN)
	}
	if _, err := l.Append(OpGrant, "d3", "bs0/s2", 300, 1300); !errors.Is(err, errSealed) {
		t.Fatalf("sealed log append err = %v, want errSealed", err)
	}
	if l.Seq() != 4 {
		t.Errorf("Seq() = %d after a failed batch of three, want 4 — its numbers must stay spent, and a refused Stage must spend none", l.Seq())
	}

	// The descriptor recovers; a snapshot covers the full state and
	// verifiably empties the log, so appends may resume.
	l.f = good
	if err := l.WriteSnapshot(st); err != nil {
		t.Fatal(err)
	}
	if l.sealed {
		t.Fatal("successful snapshot left the log sealed")
	}
	if _, err := l.Append(OpGrant, "d4", "bs0/s3", 400, 1400); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed.Grants) != 2 {
		t.Errorf("replayed %d grants, want 2 (d1 from snapshot, d4 from log)", len(replayed.Grants))
	}
}

func TestStateMarshalIsCanonical(t *testing.T) {
	// Same records applied in two different interleavings with other
	// devices' records must marshal identically for identical content.
	a := NewState()
	b := NewState()
	recs := []Record{
		{Seq: 1, Op: OpGrant, At: 10, Expiry: 100, Device: "b", Cell: "c1"},
		{Seq: 2, Op: OpGrant, At: 20, Expiry: 200, Device: "a", Cell: "c2"},
	}
	for _, r := range recs {
		a.Apply(r)
	}
	for _, r := range recs {
		b.Apply(r)
	}
	if !bytes.Equal(a.Marshal(), b.Marshal()) {
		t.Error("identical fold produced different marshals")
	}
	if !bytes.HasPrefix(a.Marshal(), []byte("seq=2 grants=2")) {
		t.Errorf("unexpected marshal header: %q", a.Marshal()[:20])
	}
}
