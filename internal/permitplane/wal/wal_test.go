package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
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
	if err := os.WriteFile(filepath.Join(dir, snapName), st.appendSnapshot(nil), 0o644); err != nil {
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

// grantedState folds n grants over a few expiry instants — the shape of
// a shard's state under equal TTLs — into a fresh state.
func grantedState(n int) *State {
	st := NewState()
	for i := 0; i < n; i++ {
		st.Apply(Record{Seq: uint64(i + 1), Op: OpGrant, At: int64(i / 64), Expiry: int64(1000 + i/64),
			Device: fmt.Sprintf("dev-%06d", (i*7919)%n), Cell: fmt.Sprintf("cell-%03d", i%256)})
	}
	return st
}

// sortedSnapshot is the snapshot file as earlier writers laid it out:
// the frame and fields appendSnapshot writes, the grants in (device,
// cell) order.
func sortedSnapshot(st *State) []byte {
	gs := make([]*Grant, 0, len(st.Grants))
	for _, g := range st.Grants {
		gs = append(gs, g)
	}
	slices.SortFunc(gs, byDeviceCell)
	payload := binary.LittleEndian.AppendUint64(nil, st.Seq)
	for _, c := range []uint64{st.TotalGrants, st.TotalRefreshes, st.TotalRevokes, st.TotalExpiries} {
		payload = binary.LittleEndian.AppendUint64(payload, c)
	}
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(gs)))
	for _, g := range gs {
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(g.Device)))
		payload = append(payload, g.Device...)
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(g.Cell)))
		payload = append(payload, g.Cell...)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(g.At))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(g.Expiry))
		payload = binary.LittleEndian.AppendUint64(payload, g.Seq)
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// TestSnapshotLoadsInEitherGrantOrder pins what the grant order of a
// snapshot file may be: one state written in expiry-index order (the
// writer's) and in (device, cell) order (earlier writers') loads to the
// same state, by Marshal, and to an index that passes Check.
func TestSnapshotLoadsInEitherGrantOrder(t *testing.T) {
	st := grantedState(2048)
	st.Apply(Record{Seq: st.Seq + 1, Op: OpRevoke, At: 40, Device: "dev-000000", Cell: "cell-000"})
	st.Apply(Record{Seq: st.Seq + 1, Op: OpRefresh, At: 41, Expiry: 990, Device: "dev-000007", Cell: "cell-001"})
	indexOrder, deviceOrder := st.appendSnapshot(nil), sortedSnapshot(st)
	if bytes.Equal(indexOrder, deviceOrder) {
		t.Fatal("the two orders wrote the same bytes: the test compares nothing")
	}
	want := st.Marshal()
	for name, file := range map[string][]byte{"index order": indexOrder, "(device, cell) order": deviceOrder} {
		loaded := NewState()
		if err := loaded.unmarshalSnapshot(file); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := loaded.Marshal(); !bytes.Equal(got, want) {
			t.Errorf("%s loads to\n%.200s…\nthe state is\n%.200s…", name, got, want)
		}
		if err := loaded.Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestWriteSnapshotAllocBudget is the ratchet on compaction's buffer: a
// warmed WriteSnapshot of a 2 048-grant state appends the snapshot into
// the buffer the log kept from the last one, straight off the expiry
// index, so it allocates only the file handling's few hundred bytes —
// where building a fresh payload from a (device, cell)-sorted copy of
// the grants allocated both, ~110 KB.
func TestWriteSnapshotAllocBudget(t *testing.T) {
	l, _, _, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	st := grantedState(2048)
	write := func() {
		if err := l.WriteSnapshot(st); err != nil {
			t.Fatal(err)
		}
	}
	write()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const n = 20
	for i := 0; i < n; i++ {
		write()
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	t.Logf("%.0f bytes allocated per snapshot of %d grants", per, len(st.Grants))
	if per > 4096 {
		t.Errorf("a warmed snapshot of %d grants allocates %.0f bytes, budget 4 KB", len(st.Grants), per)
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
	if g := st.Grants[Key("later", "c")]; len(st.Grants) != 1 || g == nil || g.Device != "later" {
		t.Errorf("surviving grants %v, want only later", st.Grants)
	}
	if st.ExpireDue(100) != nil {
		t.Error("second ExpireDue at the same instant expired something")
	}
	if err := st.Check(); err != nil {
		t.Error(err)
	}
}

// modelExpireDue is the trivially correct expiry the index replaced: scan
// every grant, sort the due ones by (expiry, device, cell), delete them.
func modelExpireDue(model map[string]Grant, now int64) []Grant {
	var due []Grant
	for _, g := range model {
		if g.Expiry <= now {
			due = append(due, g)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].Expiry != due[j].Expiry {
			return due[i].Expiry < due[j].Expiry
		}
		if due[i].Device != due[j].Device {
			return due[i].Device < due[j].Device
		}
		return due[i].Cell < due[j].Cell
	})
	for _, g := range due {
		delete(model, Key(g.Device, g.Cell))
	}
	return due
}

// TestStateIndexMatchesModel runs seeded random Grant, Refresh, Revoke
// and Expire records and ExpireDue calls through a State and through a
// plain map expired by modelExpireDue: expiries equal, ascending and
// descending (a clock that steps back), TTLs mixed. After every step
// the index must pass Check and the grants must be the model's; every
// ExpireDue must return exactly the model's grants, in its order.
func TestStateIndexMatchesModel(t *testing.T) {
	ttls := []int64{100, 100, 100, 30, 250}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st, model := NewState(), map[string]Grant{}
		now := int64(1000)
		for step := 0; step < 2000; step++ {
			switch c := rng.Intn(10); {
			case c == 0:
				now -= rng.Int63n(60)
			case c < 4:
				now += rng.Int63n(20)
			}
			r := Record{Seq: st.Seq + 1, At: now,
				Device: fmt.Sprintf("d%d", rng.Intn(24)), Cell: fmt.Sprintf("c%d", rng.Intn(3))}
			k := Key(r.Device, r.Cell)
			switch c := rng.Intn(10); {
			case c < 5:
				r.Op, r.Expiry = OpGrant, now+ttls[rng.Intn(len(ttls))]
				if _, held := model[k]; held {
					r.Op = OpRefresh
				}
				model[k] = Grant{Device: r.Device, Cell: r.Cell, At: r.At, Expiry: r.Expiry, Seq: r.Seq}
			case c < 6:
				r.Op = OpRevoke
				delete(model, k)
			case c < 7:
				r.Op = OpExpire
				delete(model, k)
			default:
				at := now + rng.Int63n(200) - 50
				got, want := st.ExpireDue(at), modelExpireDue(model, at)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: ExpireDue(%d) = %v, model %v", seed, step, at, got, want)
				}
			}
			if r.Op != 0 {
				st.Apply(r)
			}
			if err := st.Check(); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, r.Op, err)
			}
			if len(st.Grants) != len(model) {
				t.Fatalf("seed %d step %d: %d grants, model %d", seed, step, len(st.Grants), len(model))
			}
			for k, want := range model {
				if g := st.Grants[k]; g == nil || g.Device != want.Device || g.Cell != want.Cell ||
					g.At != want.At || g.Expiry != want.Expiry || g.Seq != want.Seq {
					t.Fatalf("seed %d step %d: grant %+v, model %+v", seed, step, g, want)
				}
			}
		}
	}
}

// TestMarshalSeparatesIDs pins Marshal's injectivity: two states that
// differ only in where a space, a newline or a NUL splits device from
// cell must not marshal — and so hash — alike.
func TestMarshalSeparatesIDs(t *testing.T) {
	for _, ids := range [][4]string{
		{"a b", "c", "a", "b c"},
		{"a\nb", "c", "a", "b\nc"},
		{"a\x00b", "c", "a", "b\x00c"},
	} {
		x, y := NewState(), NewState()
		x.Apply(Record{Seq: 1, Op: OpGrant, At: 1, Expiry: 2, Device: ids[0], Cell: ids[1]})
		y.Apply(Record{Seq: 1, Op: OpGrant, At: 1, Expiry: 2, Device: ids[2], Cell: ids[3]})
		if bytes.Equal(x.Marshal(), y.Marshal()) {
			t.Errorf("(%q, %q) and (%q, %q) marshal alike:\n%s", ids[0], ids[1], ids[2], ids[3], x.Marshal())
		}
	}
}

// replayIDs are the identifiers FuzzReplay's record scripts draw from:
// ordinary ones, and pairs whose concatenations coincide.
var replayIDs = []string{"d0", "d1", "a", "b c", "a b", "c", "a\x00b", "b\x00c", ""}

// scriptRecords turns a fuzzed script into records, four bytes each:
// op, device, cell, and a clock step that may be negative (the expiry's
// distance from the decision time derives from it too).
func scriptRecords(script []byte) []Record {
	var recs []Record
	at := int64(1000)
	for len(script) >= 4 && len(recs) < 64 {
		r := Record{Seq: uint64(len(recs) + 1), Op: OpGrant + Op(script[0]%4),
			Device: replayIDs[int(script[1])%len(replayIDs)], Cell: replayIDs[int(script[2])%len(replayIDs)]}
		at += int64(int8(script[3]))
		r.At = at
		if r.Op == OpGrant || r.Op == OpRefresh {
			r.Expiry = at + int64(script[3]%7)*10
		}
		recs = append(recs, r)
		script = script[4:]
	}
	return recs
}

// FuzzReplay holds the WAL decoder to its contract on bytes it did not
// write. The fuzzed log lands as wal.log and the fuzzed snapshot payload,
// framed with a valid CRC so the snapshot decoder's own checks are what
// it meets, as snapshot.snap: Replay must not panic, and what it returns
// must pass Check, before and after an ExpireDue. Then the log a fuzzed
// record script writes is cut at every frame boundary, and each prefix
// must replay (replay is Replay's fold, minus the file reads) to the
// fold of that record prefix. The seed corpus is
// testdata/fuzz/FuzzReplay.
func FuzzReplay(f *testing.F) {
	f.Add(encode(nil, testRecords()[0]), []byte{}, []byte{0, 2, 3, 5, 1, 4, 5, 200})
	f.Fuzz(func(t *testing.T, log, snap, script []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(snap) > 0 {
			framed := binary.LittleEndian.AppendUint32(nil, uint32(len(snap)))
			framed = binary.LittleEndian.AppendUint32(framed, crc32.ChecksumIEEE(snap))
			if err := os.WriteFile(filepath.Join(dir, snapName), append(framed, snap...), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, _, err := Replay(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Check(); err != nil {
			t.Fatalf("replayed state: %v", err)
		}
		st.ExpireDue(1000)
		if err := st.Check(); err != nil {
			t.Fatalf("replayed state after ExpireDue: %v", err)
		}

		var written []byte
		fold := NewState()
		for k, r := range append([]Record{{}}, scriptRecords(script)...) {
			if k > 0 {
				written = encode(written, r)
				fold.Apply(r)
			}
			st, stats, _ := replay(nil, written)
			if stats.TornBytes != 0 {
				t.Fatalf("%d-record log: %d torn bytes", k, stats.TornBytes)
			}
			if !bytes.Equal(st.Marshal(), fold.Marshal()) {
				t.Fatalf("%d-record log replays to\n%s\nits records fold to\n%s", k, st.Marshal(), fold.Marshal())
			}
			if err := st.Check(); err != nil {
				t.Fatalf("%d-record log: %v", k, err)
			}
		}
	})
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
