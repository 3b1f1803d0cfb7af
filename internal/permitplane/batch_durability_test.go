package permitplane

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os/signal"
	"sync"
	"syscall"
	"testing"
	"time"

	"threegol/internal/obs"
	"threegol/internal/permit"
	"threegol/internal/permitplane/wal"
)

// TestBatchRepeatedDeviceIsGrantThenRefresh pins record-by-record
// application inside one shard slice: the same device twice in one
// batch is a grant and then a refresh, and what the slice's one WAL
// write left on disk replays to the state being served.
func TestBatchRepeatedDeviceIsGrantThenRefresh(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurable(Config{Shards: 2, Utilization: testUtil, Clock: storeClock(), WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	reqs := []PermitRequest{
		{Device: "twice", Cell: "cell-0"},
		{Device: "once", Cell: "cell-1"},
		{Device: "twice", Cell: "cell-0"},
		{Device: "denied", Cell: "hot-0"},
	}
	if resp, _ := postBatch(t, srv.URL, reqs); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch returned %s", resp.Status)
	}
	var grants, refreshes uint64
	for _, st := range s.Status() {
		replayed, _, err := wal.Replay(ShardWALDir(dir, st.Shard))
		if err != nil {
			t.Fatal(err)
		}
		if got := HashState(replayed); got != st.StateHash {
			t.Errorf("shard %d: replayed state hashes to %s, live shard to %s", st.Shard, got, st.StateHash)
		}
		grants += replayed.TotalGrants
		refreshes += replayed.TotalRefreshes
	}
	if grants != 2 || refreshes != 1 {
		t.Errorf("%d grants and %d refreshes on disk, want 2 and 1 (twice: grant then refresh; once: grant)", grants, refreshes)
	}
}

// capFileSize makes the kernel refuse to grow any file of this process
// past n bytes (EFBIG after a short write, as a full disk or a quota
// would) until the returned function is called.
func capFileSize(t *testing.T, n int64) (lift func()) {
	t.Helper()
	signal.Ignore(syscall.SIGXFSZ) // the default action would kill the test binary
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: uint64(n), Max: old.Max}); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	return func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatalf("restoring RLIMIT_FSIZE: %v", err)
		}
	}
}

// TestFailedBatchWriteDegradesAsAUnit fails one slice's WAL write
// partway (the kernel stops the file growing mid-batch): the whole
// batch is rewound, it counts as one WAL error, the state advances all
// the same, later slices land on a clean frame boundary above the spent
// sequence numbers, and a snapshot makes disk and memory agree again.
func TestFailedBatchWriteDegradesAsAUnit(t *testing.T) {
	dir := t.TempDir()
	m := NewMetrics(obs.NewRegistry())
	s, err := OpenGrantStore(dir, storeClock(), m, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	slice := func(prefix string, n int) ([]serverRequest, []int) {
		reqs, indices := make([]serverRequest, n), make([]int, n)
		for i := range reqs {
			reqs[i], indices[i] = serverRequest{device: fmt.Appendf(nil, "%s-%02d", prefix, i), cell: "cell"}, i
		}
		return reqs, indices
	}
	granted := make([]permit.Response, 16)
	for i := range granted {
		granted[i] = permit.Response{Granted: true, TTLSeconds: 3600}
	}

	reqs, indices := slice("before", 4)
	s.RecordDecisions(reqs, granted, indices)
	size, err := s.log.Size()
	if err != nil {
		t.Fatal(err)
	}

	// Room for one frame and a half of the next batch's sixteen.
	lift := capFileSize(t, size+size/4+size/8)
	reqs, indices = slice("lost", 16)
	s.RecordDecisions(reqs, granted, indices)
	lift()

	if got := s.WALErrors(); got != 1 {
		t.Errorf("%d WAL errors after one failed batch write, want 1", got)
	}
	if got := m.WALErrors.With().Value(); got != 1 {
		t.Errorf("WAL error counter = %d, want 1", got)
	}
	if got := m.WALRecords.With("grant").Value(); got != 4 {
		t.Errorf("%d grant records counted as appended, want 4 — the failed batch's were counted", got)
	}
	if got := s.Outstanding(); got != 20 {
		t.Errorf("%d outstanding, want 20 — the state must advance though the write failed", got)
	}
	if got := s.Seq(); got != 20 {
		t.Errorf("state seq %d, want 20", got)
	}
	if after, err := s.log.Size(); err != nil || after != size {
		t.Errorf("log is %d bytes after the failed batch (err %v), want the %d before it — rewound as a unit", after, err, size)
	}

	reqs, indices = slice("after", 4)
	s.RecordDecisions(reqs, granted, indices)
	replayed := mustReplay(t, dir)
	if len(replayed.Grants) != 8 || replayed.Seq != 24 {
		t.Errorf("disk replays to %d grants at seq %d, want 8 (before, after) at seq 24", len(replayed.Grants), replayed.Seq)
	}
	s.Snapshot()
	if got, want := HashState(mustReplay(t, dir)), s.StateHash(); got != want {
		t.Errorf("after the healing snapshot disk hashes to %s, memory to %s", got, want)
	}
	if got := s.WALErrors(); got != 1 {
		t.Errorf("%d WAL errors at the end, want still 1", got)
	}
}

// TestConcurrentBatchesOverlappingDevices batches the same devices from
// two clients while a third party polls Status: run under -race it is
// the check that the slice fold, the pooled scratch and the status
// accessors share nothing unsynchronised, and at the end the disk still
// replays to the state served.
func TestConcurrentBatchesOverlappingDevices(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurable(Config{Shards: 4, Utilization: testUtil, TTL: time.Hour, WALDir: dir, SnapshotEvery: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	reqs := make([]PermitRequest, 128)
	for i := range reqs {
		cell := fmt.Sprintf("cell-%d", i%16)
		if i%8 == 7 {
			cell = fmt.Sprintf("hot-%d", i%16)
		}
		reqs[i] = PermitRequest{Device: fmt.Sprintf("dev-%d", i%48), Cell: cell}
	}
	stop := make(chan struct{})
	var polls sync.WaitGroup
	polls.Add(1)
	go func() {
		defer polls.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Status()
			}
		}
	}()
	var clients sync.WaitGroup
	for c := 0; c < 2; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			bc := &BatchClient{BackendURL: srv.URL}
			for round := 0; round < 20; round++ {
				mine := reqs[(c*32+round)%64:]
				out, err := bc.Batch(context.Background(), mine)
				if err != nil {
					t.Errorf("client %d round %d: %v", c, round, err)
					return
				}
				for i, d := range out {
					if want := testUtil(mine[i].Cell) < 0.7; d.Granted != want {
						t.Errorf("client %d round %d request %d (%s): granted=%t, want %t", c, round, i, mine[i].Cell, d.Granted, want)
						return
					}
				}
			}
		}(c)
	}
	clients.Wait()
	close(stop)
	polls.Wait()

	for _, st := range s.Status() {
		if st.WALErrors != 0 {
			t.Errorf("shard %d: %d WAL errors", st.Shard, st.WALErrors)
		}
		if got := HashState(mustReplay(t, ShardWALDir(dir, st.Shard))); got != st.StateHash {
			t.Errorf("shard %d: replayed state hashes to %s, live shard to %s", st.Shard, got, st.StateHash)
		}
	}
}
