package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"threegol/internal/permitplane"
)

// TestVerifyRecovery holds the chaos check to the daemon's recovery: a
// copy of a killed shard's WAL, recovered at the restart's instant,
// passes; a copy missing its last frame, a shard list missing an index
// and one listing an index twice each fail, naming the shard.
func TestVerifyRecovery(t *testing.T) {
	// A durable shard on a fake clock, left unclosed as a kill would.
	dir := filepath.Join(t.TempDir(), "shard-0")
	clk := &fixedClock{at: time.Unix(1_000_000, 0)}
	st, err := permitplane.OpenGrantStore(dir, clk, permitplane.Metrics{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.RecordDecision("short-a", "cell-1", true, 60)
	st.RecordDecision("short-b", "cell-2", true, 60)
	st.RecordDecision("long-a", "cell-1", true, 600)
	st.RecordDecision("long-b", "cell-3", true, 600)
	clk.Sleep(30 * time.Second)
	st.RecordDecision("short-b", "cell-2", true, 60) // refresh: lapses at 90 s
	st.RecordDecision("long-b", "cell-3", false, 0)  // revoke, the last frame

	copies := make([]string, 5)
	for i := range copies {
		copies[i] = filepath.Join(t.TempDir(), "shard-0")
		if err := copyDir(dir, copies[i]); err != nil {
			t.Fatal(err)
		}
	}
	tail := filepath.Join(copies[1], "wal.log")
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	// The restart, after short-a's TTL lapsed.
	clk.Sleep(45 * time.Second)
	restarted, err := permitplane.OpenGrantStore(dir, clk, permitplane.Metrics{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := restarted.Recovery()
	if err := restarted.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.RecoveredGrants != 2 || rec.ExpiredOnRecovery != 1 {
		t.Fatalf("restart recovered %d grants and expired %d, want 2 and 1", rec.RecoveredGrants, rec.ExpiredOnRecovery)
	}
	reported := permitplane.ShardStatus{Shard: 0, Recovery: &rec}

	if n, err := verifyRecovery(copies[:1], []permitplane.ShardStatus{reported}); err != nil || n != 1 {
		t.Fatalf("intact copy: verified %d shards, err %v; want 1, nil", n, err)
	}
	for _, tc := range []struct {
		name   string
		copies []string
		shards []permitplane.ShardStatus
		want   string
	}{
		{"torn last frame", copies[1:2], []permitplane.ShardStatus{reported}, "shard 0"},
		{"missing index", copies[2:4], []permitplane.ShardStatus{reported}, "shard 1"},
		{"duplicated index", copies[4:5], []permitplane.ShardStatus{reported, reported}, "shard 0"},
	} {
		n, err := verifyRecovery(tc.copies, tc.shards)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: verified %d shards, err %v; want an error naming %s", tc.name, n, err, tc.want)
		}
	}
}
