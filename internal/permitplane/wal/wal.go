// Package wal is the permit plane's durability layer: a per-shard,
// checksummed, append-only write-ahead log of grant-state changes
// (grant / refresh / revoke / expiry) with periodic snapshot
// compaction.
//
// The contract is deterministic replay: the same bytes always
// reconstruct the same shard state, byte-identically under
// State.Marshal, no matter how many times the process died in between.
// Three properties make that hold through a kill -9 at any byte:
//
//   - Every record is framed as length + CRC32 + payload. A torn tail
//     (the partial record a dying process left behind) fails the
//     length or checksum test; Open truncates the log at the last
//     valid frame instead of refusing to start, and Replay stops
//     there. Both observers therefore agree on exactly which records
//     exist.
//   - Snapshots are written to a temp file and renamed into place, so
//     a snapshot either exists completely or not at all. The snapshot
//     records the last sequence number it covers; replay skips log
//     records at or below it, so a crash between "snapshot renamed"
//     and "log truncated" double-applies nothing.
//   - Sequence numbers are assigned when a record is staged and never
//     reused, so any prefix of the log composes with any snapshot into
//     one well-defined state.
//
// Appending is two steps: Stage numbers a record and frames it into a
// buffer, Commit writes the buffer with one write(2) — however many
// records a caller stages between commits, the file sees one write and
// a failure rewinds that write as a unit. A kill inside the write still
// leaves whole frames followed by at most one torn one, so recovery
// works in records, not in commits. Append is Stage plus Commit.
//
// The package is deliberately free of clocks and goroutines: callers
// stamp records with their own time source and serialise appends (the
// permit plane holds one per-shard store lock), which keeps replay a
// pure function of the bytes on disk.
package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Op is a grant-state change class.
type Op uint8

// The four record kinds. Grant creates an outstanding permit for a
// device, Refresh extends one that already exists, Revoke drops one
// because a later decision denied the device (its cell filled up), and
// Expire drops one whose TTL lapsed.
const (
	OpGrant Op = iota + 1
	OpRefresh
	OpRevoke
	OpExpire
)

// String names the op for logs and event attributes.
func (op Op) String() string {
	switch op {
	case OpGrant:
		return "grant"
	case OpRefresh:
		return "refresh"
	case OpRevoke:
		return "revoke"
	case OpExpire:
		return "expire"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Record is one grant-state change.
type Record struct {
	// Seq is the record's log sequence number: strictly increasing,
	// assigned by Append, never reused.
	Seq uint64
	// Op classifies the change.
	Op Op
	// At is the decision time in Unix nanoseconds (the caller's clock;
	// replay never consults a clock of its own).
	At int64
	// Expiry is the permit's expiry in Unix nanoseconds; zero for
	// Revoke and Expire records.
	Expiry int64
	// Device and Cell identify the permit.
	Device, Cell string
}

// Frame layout: u32 payload length, u32 CRC32 (IEEE) of the payload,
// then the payload. maxPayload bounds a frame so a corrupt length
// field reads as a torn tail instead of a giant allocation.
const (
	frameHeader = 8
	maxPayload  = 1 << 16
)

// maxStagedKeep is the largest staging buffer a Log keeps between
// commits (a full 512-record slice of ordinary IDs is ~40 KB).
const maxStagedKeep = 1 << 20

// MaxIDLen bounds the device and cell identifiers a record may carry.
// The frame stores each length in a uint16 and caps the whole payload
// at maxPayload; an unbounded ID would wrap the length field or exceed
// the frame bound, and decodeFrame would read the resulting frame as a
// torn tail — silently truncating every record appended after it.
// Append rejects oversized IDs up front so one bad identifier can
// never poison the log.
const MaxIDLen = 4096

// ErrIDTooLong reports a device or cell identifier longer than
// MaxIDLen; Append rejected the record before writing anything.
var ErrIDTooLong = errors.New("wal: device or cell ID exceeds MaxIDLen")

// errSealed reports a log sealed after a failed write could not be
// rewound to a frame boundary: further appends would land after
// partial frame bytes and be unreachable by replay, so they are
// refused instead. A successful WriteSnapshot heals the log.
var errSealed = errors.New("wal: log sealed after unrepairable partial write")

// encode appends the record's frame to buf and returns the result. The
// payload is written in place behind a reserved header, so staging a
// record allocates nothing once the buffer has grown.
func encode(buf []byte, r Record) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameHeader)...)
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	buf = append(buf, byte(r.Op))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.At))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Expiry))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Device)))
	buf = append(buf, r.Device...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Cell)))
	buf = append(buf, r.Cell...)

	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// errTorn reports an invalid or incomplete frame — the replay loop's
// signal to stop at the previous record boundary.
var errTorn = errors.New("wal: torn or corrupt frame")

// decodeFrame parses one frame from b. n is the total frame size
// consumed on success.
func decodeFrame(b []byte) (r Record, n int, err error) {
	if len(b) < frameHeader {
		return Record{}, 0, errTorn
	}
	plen := int(binary.LittleEndian.Uint32(b))
	sum := binary.LittleEndian.Uint32(b[4:])
	if plen < 27 || plen > maxPayload || len(b) < frameHeader+plen {
		return Record{}, 0, errTorn
	}
	payload := b[frameHeader : frameHeader+plen]
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, 0, errTorn
	}
	r.Seq = binary.LittleEndian.Uint64(payload)
	r.Op = Op(payload[8])
	r.At = int64(binary.LittleEndian.Uint64(payload[9:]))
	r.Expiry = int64(binary.LittleEndian.Uint64(payload[17:]))
	off := 25
	dlen := int(binary.LittleEndian.Uint16(payload[off:]))
	off += 2
	if off+dlen+2 > plen {
		return Record{}, 0, errTorn
	}
	r.Device = string(payload[off : off+dlen])
	off += dlen
	clen := int(binary.LittleEndian.Uint16(payload[off:]))
	off += 2
	if off+clen != plen {
		return Record{}, 0, errTorn
	}
	r.Cell = string(payload[off : off+clen])
	if r.Op < OpGrant || r.Op > OpExpire {
		return Record{}, 0, errTorn
	}
	return r, frameHeader + plen, nil
}

// RecoveryStats describes what Open (or Replay) found on disk.
type RecoveryStats struct {
	// SnapshotSeq is the sequence number the loaded snapshot covers;
	// zero when no snapshot was usable.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// SnapshotGrants is how many outstanding grants the snapshot held.
	SnapshotGrants int `json:"snapshot_grants"`
	// RecordsReplayed counts log records applied on top of the
	// snapshot.
	RecordsReplayed int64 `json:"records_replayed"`
	// RecordsSkipped counts log records already covered by the
	// snapshot (seq <= SnapshotSeq) — nonzero only after a crash
	// between snapshot rename and log truncation.
	RecordsSkipped int64 `json:"records_skipped"`
	// TornBytes is how many trailing bytes failed the frame checks and
	// were truncated (Open) or ignored (Replay).
	TornBytes int64 `json:"torn_bytes"`
	// SnapshotCorrupt reports that a snapshot file existed but failed
	// its checksum; recovery fell back to replaying the log alone.
	SnapshotCorrupt bool `json:"snapshot_corrupt,omitempty"`
}

const (
	logName      = "wal.log"
	snapName     = "snapshot.snap"
	snapTempName = "snapshot.snap.tmp"
)

// Log is one shard's write-ahead log: an open log file plus the
// snapshot machinery. Callers serialise all method calls (the permit
// plane's per-shard store lock).
type Log struct {
	dir       string
	f         *os.File
	seq       uint64
	syncEvery int
	unsynced  int
	// size is the log's known-good byte length: the end of the last
	// fully written frame. A failed append rewinds the file here so a
	// partial write can never sit in the middle of later records.
	size int64
	// sealed refuses further appends after a rewind itself failed —
	// the only state in which partial bytes might precede the tail.
	sealed bool
	// staged holds the frames of the stagedN records Stage has numbered
	// and Commit has not yet written.
	staged    []byte
	stagedN   int
	recovered RecoveryStats
}

// Open recovers a shard directory and returns the log ready for
// appends, the reconstructed state, and what recovery found. A torn
// tail is truncated in place so the next append lands on a valid
// frame boundary. The directory is created if missing.
func Open(dir string, syncEvery int) (*Log, *State, RecoveryStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, RecoveryStats{}, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	st, stats, validLen, err := replayDir(dir)
	if err != nil {
		return nil, nil, stats, err
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("wal: opening log in %s: %w", dir, err)
	}
	if stats.TornBytes > 0 {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, nil, stats, fmt.Errorf("wal: truncating torn tail in %s: %w", dir, err)
		}
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, stats, fmt.Errorf("wal: seeking log in %s: %w", dir, err)
	}
	// Make the log file's existence itself durable: a power loss right
	// after boot must not forget the directory entry the first synced
	// append will live in.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, nil, stats, err
	}
	l := &Log{dir: dir, f: f, seq: st.Seq, syncEvery: syncEvery, size: validLen, recovered: stats}
	return l, st, stats, nil
}

// syncDir fsyncs a directory, making renames and creates inside it
// durable across power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening %s to sync: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: syncing directory %s: %w", dir, err)
	}
	return nil
}

// Replay reconstructs a shard's state read-only — the chaos harness's
// independent observer. It never writes: a torn tail is skipped, not
// truncated, so replaying a dead daemon's directory is side-effect
// free and two replays of the same bytes always agree.
func Replay(dir string) (*State, RecoveryStats, error) {
	st, stats, _, err := replayDir(dir)
	return st, stats, err
}

// replayDir loads the snapshot and replays the log, returning the
// state, the stats, and the byte length of the log's valid prefix.
func replayDir(dir string) (*State, RecoveryStats, int64, error) {
	snapBytes, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil && !os.IsNotExist(err) {
		return nil, RecoveryStats{}, 0, fmt.Errorf("wal: reading snapshot in %s: %w", dir, err)
	}
	logBytes, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil && !os.IsNotExist(err) {
		return nil, RecoveryStats{}, 0, fmt.Errorf("wal: reading log in %s: %w", dir, err)
	}
	st, stats, valid := replay(snapBytes, logBytes)
	return st, stats, valid, nil
}

// replay is the fold of a snapshot file's bytes (nil when there is no
// snapshot file) and a log file's: the state, the stats, and the byte
// length of the log's valid prefix.
func replay(snapBytes, logBytes []byte) (*State, RecoveryStats, int64) {
	var stats RecoveryStats
	st := NewState()
	if snapBytes != nil {
		if err := st.unmarshalSnapshot(snapBytes); err != nil {
			// A corrupt snapshot cannot be partially trusted; fall back
			// to whatever the log alone reconstructs rather than refuse
			// to start.
			st = NewState()
			stats.SnapshotCorrupt = true
		} else {
			stats.SnapshotSeq = st.Seq
			stats.SnapshotGrants = len(st.Grants)
		}
	}
	off := 0
	for off < len(logBytes) {
		r, n, err := decodeFrame(logBytes[off:])
		if err != nil {
			stats.TornBytes = int64(len(logBytes) - off)
			break
		}
		if r.Seq <= st.Seq {
			stats.RecordsSkipped++
		} else {
			st.Apply(r)
			stats.RecordsReplayed++
		}
		off += n
	}
	return st, stats, int64(off)
}

// Seq reports the last assigned sequence number.
func (l *Log) Seq() uint64 { return l.seq }

// Recovered reports what Open found.
func (l *Log) Recovered() RecoveryStats { return l.recovered }

// Stage assigns the next sequence number to a record, frames it into
// the log's staging buffer, and returns the stamped record for the
// caller to apply to its state; nothing reaches the file until Commit.
// A sequence number is spent the moment it is assigned: if the commit
// fails the staged records are dropped and their numbers are never
// handed out again, so a caller that already folded them into its state
// stays aligned with the log (what SkipTo arranges for records that
// could not even be staged). Records whose device or cell exceeds
// MaxIDLen are rejected with ErrIDTooLong before anything is numbered —
// an oversized ID would produce a frame replay reads as torn,
// truncating every record after it — and a sealed log stages nothing.
// Every Stage must be followed by Commit before any other method.
func (l *Log) Stage(op Op, device, cell string, at, expiry int64) (Record, error) {
	if l.sealed {
		return Record{}, fmt.Errorf("wal: appending %s record: %w", op, errSealed)
	}
	if len(device) > MaxIDLen || len(cell) > MaxIDLen {
		return Record{}, fmt.Errorf("wal: appending %s record (device %d bytes, cell %d bytes): %w",
			op, len(device), len(cell), ErrIDTooLong)
	}
	l.seq++
	r := Record{Seq: l.seq, Op: op, At: at, Expiry: expiry, Device: device, Cell: cell}
	l.staged = encode(l.staged, r)
	l.stagedN++
	return r, nil
}

// Commit writes every staged frame with one write(2) — the unit the
// failure handling works in. A failed write is rewound to the last
// frame boundary so partial bytes never precede later appends, and the
// whole batch is dropped; if the rewind itself fails the log seals and
// every Stage errors until a snapshot heals it. With syncEvery > 0 the
// file is fsynced once that many records accumulated; syncEvery == 0
// never fsyncs, which still survives kill -9 (the kernel owns written
// pages) but not power loss. Commit with nothing staged is a no-op.
func (l *Log) Commit() error {
	if l.stagedN == 0 {
		return nil
	}
	frames, n := l.staged, l.stagedN
	l.staged, l.stagedN = l.staged[:0], 0
	if cap(frames) > maxStagedKeep {
		l.staged = nil // one huge batch must not pin its buffer for good
	}
	if _, err := l.f.Write(frames); err != nil {
		l.rewind()
		return fmt.Errorf("wal: writing %d staged record(s): %w", n, err)
	}
	l.size += int64(len(frames))
	l.unsynced += n
	if l.syncEvery > 0 && l.unsynced >= l.syncEvery {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: syncing log: %w", err)
		}
		l.unsynced = 0
	}
	return nil
}

// Append is Stage and Commit of one record: the single-record form of
// the one append implementation.
func (l *Log) Append(op Op, device, cell string, at, expiry int64) (Record, error) {
	r, err := l.Stage(op, device, cell, at, expiry)
	if err != nil {
		return Record{}, err
	}
	if err := l.Commit(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// rewind discards whatever a failed write left past the last
// known-good frame boundary. The torn-tail machinery only tolerates
// garbage at the very end of the log; without the rewind, the next
// successful append would strand partial bytes mid-file and replay
// would stop there, discarding every record after them. If the rewind
// fails the log seals: refusing appends is strictly better than
// writing records recovery cannot reach.
func (l *Log) rewind() {
	if err := l.f.Truncate(l.size); err != nil {
		l.sealed = true
		return
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		l.sealed = true
	}
}

// SkipTo advances the sequence counter to at least seq without writing
// anything. The grant store calls it after folding a record the log
// could not append (degraded durability): the in-memory state's
// sequence number moved past the log's, and a later snapshot persists
// that higher seq — if subsequent appends reused the lower numbers,
// replay would skip them as already covered by the snapshot and
// durably written records would silently vanish.
func (l *Log) SkipTo(seq uint64) {
	if seq > l.seq {
		l.seq = seq
	}
}

// WriteSnapshot persists st atomically (temp file + rename) and
// truncates the log: every record the snapshot covers is compacted
// away. A crash at any point leaves a recoverable directory — the old
// snapshot until the rename, skipped duplicate records until the
// truncation.
func (l *Log) WriteSnapshot(st *State) error {
	tmp := filepath.Join(l.dir, snapTempName)
	buf := st.marshalSnapshot()
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating snapshot temp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: closing snapshot temp: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName)); err != nil {
		return fmt.Errorf("wal: installing snapshot: %w", err)
	}
	// The rename is atomic but not durable until the directory entry is
	// synced; without this, a power loss after the log truncation below
	// could resurrect the old snapshot with the new (shorter) log and
	// lose every record the new snapshot had compacted away.
	if err := syncDir(l.dir); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncating compacted log: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: rewinding compacted log: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing truncated log: %w", err)
	}
	l.size = 0
	l.unsynced = 0
	// The snapshot covers the full state and the log is verifiably
	// empty, so a log sealed by an earlier failed rewind is clean again.
	l.sealed = false
	return nil
}

// Size reports the log file's current byte length (diagnostics).
func (l *Log) Size() (int64, error) {
	fi, err := l.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("wal: stat log: %w", err)
	}
	return fi.Size(), nil
}

// Close syncs and closes the log file. It does not snapshot; callers
// that want a final compaction call WriteSnapshot first.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: syncing log on close: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing log: %w", err)
	}
	return nil
}

// Grant is one outstanding permit in the reconstructed state; it changes
// only through Apply and ApplyTo, which keep it in the expiry index.
type Grant struct {
	Device string
	Cell   string
	At     int64
	Expiry int64
	Seq    uint64

	bucket *expiryBucket // bucket.grants[slot] is this grant
	slot   int
}

// expiryBucket holds the grants expiring at one instant; a State's
// buckets ascend in a circular list through its sentinel, none empty.
type expiryBucket struct {
	at         int64
	grants     []*Grant
	prev, next *expiryBucket
}

// Key is the grant map key: a permit authorises one device to onload
// via one cell, so state is keyed by the (device, cell) pair. Keying by
// device alone would make shard-merged totals depend on the shard
// count (shards own cells, so one device's grants in two cells live in
// two shards) and break the byte-identical merge guarantee. The
// device's length (a frame holds at most 65535) leads as two bytes, so
// no ID byte can move the boundary between device and cell.
func Key(device, cell string) string {
	return string([]byte{byte(len(device) >> 8), byte(len(device))}) + device + cell
}

// State is the replayable shard state: outstanding grants keyed by
// (device, cell), the last applied sequence number, and cumulative
// lifecycle counters. Apply is a pure fold over records, so any two
// observers that saw the same records hold byte-identical state.
//
// The state owns the expiry order: a bucket per expiry instant, one
// entry per grant, so at most one bucket per grant (and one spare). A
// refresh moves its grant by a swap-delete and an insertion walking back
// from the latest bucket: O(1) for equal TTLs on a forward clock.
type State struct {
	Grants map[string]*Grant
	Seq    uint64
	// TotalGrants, TotalRefreshes, TotalRevokes and TotalExpiries
	// count lifecycle transitions since the log began (snapshots carry
	// them forward through compaction).
	TotalGrants, TotalRefreshes, TotalRevokes, TotalExpiries uint64

	expiry expiryBucket  // sentinel: expiry.next is the earliest bucket
	spare  *expiryBucket // the last to empty, reused by the next insertion
}

// NewState returns an empty state.
func NewState() *State {
	st := &State{Grants: make(map[string]*Grant)}
	st.expiry.prev, st.expiry.next = &st.expiry, &st.expiry
	return st
}

// Apply folds one record into the state: a lookup plus ApplyTo.
func (st *State) Apply(r Record) {
	st.ApplyTo(st.Grants[Key(r.Device, r.Cell)], r)
}

// ApplyTo folds one record into the state, given g =
// Grants[Key(r.Device, r.Cell)] (nil if none): the one fold, for a
// caller that has already looked the grant up.
func (st *State) ApplyTo(g *Grant, r Record) {
	switch r.Op {
	case OpGrant, OpRefresh:
		if r.Op == OpGrant {
			st.TotalGrants++
		} else {
			st.TotalRefreshes++
		}
		switch {
		case g == nil:
			g = &Grant{Device: r.Device, Cell: r.Cell, Expiry: r.Expiry}
			st.Grants[Key(r.Device, r.Cell)] = g
			st.index(g)
		case g.Expiry != r.Expiry:
			st.unindex(g)
			g.Expiry = r.Expiry
			st.index(g)
		}
		g.At, g.Seq = r.At, r.Seq
	case OpRevoke, OpExpire:
		if r.Op == OpRevoke {
			st.TotalRevokes++
		} else {
			st.TotalExpiries++
		}
		if g != nil {
			st.unindex(g)
			delete(st.Grants, Key(r.Device, r.Cell))
		}
	}
	st.Seq = r.Seq
}

// index files g under its expiry, walking back from the latest bucket.
func (st *State) index(g *Grant) {
	b := st.expiry.prev
	for b != &st.expiry && b.at > g.Expiry {
		b = b.prev
	}
	if b == &st.expiry || b.at != g.Expiry {
		after := b
		if b = st.spare; b == nil {
			b = new(expiryBucket)
		}
		st.spare = nil
		b.at, b.prev, b.next = g.Expiry, after, after.next
		after.next.prev, after.next = b, b
	}
	g.bucket, g.slot = b, len(b.grants)
	b.grants = append(b.grants, g)
}

// unindex takes g out of its bucket (a swap-delete) and unlinks the
// bucket if that emptied it.
func (st *State) unindex(g *Grant) {
	b := g.bucket
	last := len(b.grants) - 1
	b.grants[g.slot] = b.grants[last]
	b.grants[g.slot].slot = g.slot
	b.grants[last] = nil
	b.grants = b.grants[:last]
	if last == 0 {
		st.unlink(b)
	}
}

// unlink drops an emptied bucket from the list and keeps it as the spare.
func (st *State) unlink(b *expiryBucket) {
	b.prev.next, b.next.prev = b.next, b.prev
	b.prev, b.next = nil, nil
	st.spare = b
}

// ExpireDue removes every grant whose expiry is at or before now — the
// due buckets at the front of the index — returning them sorted by
// (expiry, device, cell) so callers that log the expiries produce a
// deterministic record order.
func (st *State) ExpireDue(now int64) []Grant {
	var due []Grant
	for b := st.expiry.next; b != &st.expiry && b.at <= now; b = st.expiry.next {
		slices.SortFunc(b.grants, byDeviceCell)
		for i, g := range b.grants {
			delete(st.Grants, Key(g.Device, g.Cell))
			g.bucket, g.slot, b.grants[i] = nil, 0, nil
			due = append(due, *g)
		}
		b.grants = b.grants[:0]
		st.unlink(b)
	}
	return due
}

// byDeviceCell orders grants by (device, cell).
func byDeviceCell(a, b *Grant) int {
	if c := strings.Compare(a.Device, b.Device); c != 0 {
		return c
	}
	return strings.Compare(a.Cell, b.Cell)
}

// sortedGrants returns the grants in the order of order.
func (st *State) sortedGrants(order func(a, b *Grant) int) []*Grant {
	gs := make([]*Grant, 0, len(st.Grants))
	for _, g := range st.Grants {
		gs = append(gs, g)
	}
	slices.SortFunc(gs, order)
	return gs
}

// Check verifies that the map and the expiry index agree: every grant
// indexed once, in its expiry's bucket; buckets ascending, none empty.
func (st *State) Check() error {
	indexed := 0
	for b := st.expiry.next; b != &st.expiry; b = b.next {
		if b.prev.next != b || b.next.prev != b || len(b.grants) == 0 || (b.prev != &st.expiry && b.prev.at >= b.at) {
			return fmt.Errorf("wal: expiry bucket %d is mislinked, empty or out of order", b.at)
		}
		for i, g := range b.grants {
			if g.bucket != b || g.slot != i || g.Expiry != b.at || st.Grants[Key(g.Device, g.Cell)] != g {
				return fmt.Errorf("wal: grant (%q, %q) expiring at %d is misindexed in bucket %d", g.Device, g.Cell, g.Expiry, b.at)
			}
		}
		indexed += len(b.grants)
	}
	if indexed != len(st.Grants) {
		return fmt.Errorf("wal: %d grants held, %d indexed", len(st.Grants), indexed)
	}
	return nil
}

// Marshal renders the state canonically: a header line followed by one
// line per outstanding grant in (device, cell) order, IDs quoted. Two
// states marshal to identical bytes exactly when they hold the same
// grants, seq and counters — the "byte-identical replay" pin the
// recovery tests and the chaos harness's hash comparison rest on.
func (st *State) Marshal() []byte {
	buf := fmt.Appendf(nil, "seq=%d grants=%d total=%d/%d/%d/%d\n",
		st.Seq, len(st.Grants),
		st.TotalGrants, st.TotalRefreshes, st.TotalRevokes, st.TotalExpiries)
	for _, g := range st.sortedGrants(byDeviceCell) {
		buf = fmt.Appendf(buf, "%q %q %d %d %d\n", g.Device, g.Cell, g.At, g.Expiry, g.Seq)
	}
	return buf
}

// Snapshot payload: u32 length + u32 CRC frame (same as records)
// around: seq, four counters, grant count, then each grant in (device,
// cell) order.
func (st *State) marshalSnapshot() []byte {
	grants := st.sortedGrants(byDeviceCell)
	payload := make([]byte, 0, 44+len(grants)*48)
	payload = binary.LittleEndian.AppendUint64(payload, st.Seq)
	payload = binary.LittleEndian.AppendUint64(payload, st.TotalGrants)
	payload = binary.LittleEndian.AppendUint64(payload, st.TotalRefreshes)
	payload = binary.LittleEndian.AppendUint64(payload, st.TotalRevokes)
	payload = binary.LittleEndian.AppendUint64(payload, st.TotalExpiries)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(grants)))
	for _, g := range grants {
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

// errSnapshot reports an unreadable snapshot file.
var errSnapshot = errors.New("wal: corrupt snapshot")

func (st *State) unmarshalSnapshot(b []byte) error {
	if len(b) < frameHeader {
		return errSnapshot
	}
	plen := int(binary.LittleEndian.Uint32(b))
	sum := binary.LittleEndian.Uint32(b[4:])
	if plen < 44 || len(b) != frameHeader+plen {
		return errSnapshot
	}
	payload := b[frameHeader:]
	if crc32.ChecksumIEEE(payload) != sum {
		return errSnapshot
	}
	st.Seq = binary.LittleEndian.Uint64(payload)
	st.TotalGrants = binary.LittleEndian.Uint64(payload[8:])
	st.TotalRefreshes = binary.LittleEndian.Uint64(payload[16:])
	st.TotalRevokes = binary.LittleEndian.Uint64(payload[24:])
	st.TotalExpiries = binary.LittleEndian.Uint64(payload[32:])
	n := int(binary.LittleEndian.Uint32(payload[40:]))
	off := 44
	for i := 0; i < n; i++ {
		g := new(Grant)
		if off+2 > len(payload) {
			return errSnapshot
		}
		dlen := int(binary.LittleEndian.Uint16(payload[off:]))
		off += 2
		if off+dlen+2 > len(payload) {
			return errSnapshot
		}
		g.Device = string(payload[off : off+dlen])
		off += dlen
		clen := int(binary.LittleEndian.Uint16(payload[off:]))
		off += 2
		if off+clen+24 > len(payload) {
			return errSnapshot
		}
		g.Cell = string(payload[off : off+clen])
		off += clen
		g.At = int64(binary.LittleEndian.Uint64(payload[off:]))
		g.Expiry = int64(binary.LittleEndian.Uint64(payload[off+8:]))
		g.Seq = binary.LittleEndian.Uint64(payload[off+16:])
		off += 24
		st.Grants[Key(g.Device, g.Cell)] = g
	}
	if off != len(payload) {
		return errSnapshot
	}
	// In expiry order, every insertion lands at the tail.
	for _, g := range st.sortedGrants(func(a, b *Grant) int { return cmp.Compare(a.Expiry, b.Expiry) }) {
		st.index(g)
	}
	return nil
}
