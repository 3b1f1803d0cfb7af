// Chaos mode: instead of an in-process plane, the harness spawns a
// real 3golpermitd with a WAL, SIGKILLs it mid-load, replays the WAL
// itself while the daemon is dead, restarts the daemon on the same
// port, and cross-checks the daemon's recovered state hash against its
// own replay — the process-level proof that the durability layer's
// "replay equals pre-kill state modulo TTL expiries" contract holds
// under real concurrent load, not just in unit tests.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"

	"threegol/internal/clock"
	"threegol/internal/permitplane"
	"threegol/internal/permitplane/wal"
)

// Client phases for the phase-split error counters: errors before the
// kill mean the harness (or daemon) is broken, errors during the
// outage are the point of the exercise, errors after recovery mean the
// restarted daemon is not actually serving.
const (
	phaseBeforeKill = iota
	phaseOutage
	phaseRecovered
	phaseCount
)

// chaosResult is the chaos sub-object of the JSON report.
type chaosResult struct {
	// KillAtWallSeconds is when the SIGKILL landed, relative to load
	// start.
	KillAtWallSeconds float64 `json:"kill_at_wall_seconds"`
	// OutageSeconds is kill → restarted daemon answering HTTP again.
	OutageSeconds float64 `json:"outage_seconds"`
	// RecoverySeconds is the slowest shard's boot-time WAL replay (the
	// daemon's own measurement, from /debug/shards).
	RecoverySeconds float64 `json:"recovery_seconds"`
	// PreKillGrants is what the harness's independent replay of the
	// dead daemon's WAL reconstructed; RecoveredGrants is what the
	// restarted daemon reports (PreKill minus outage TTL expiries).
	PreKillGrants     int `json:"pre_kill_grants"`
	RecoveredGrants   int `json:"recovered_grants"`
	ExpiredOnRecovery int `json:"expired_on_recovery"`
	// ReplayedRecords counts WAL records the independent replay applied
	// across all shards.
	ReplayedRecords int64 `json:"replayed_records"`
	// ShardsVerified counts shards whose post-restart state hash
	// matched the independent replay exactly. A mismatch aborts the run
	// before this report exists, so on success this equals the shard
	// count — recorded anyway so the report is self-describing.
	ShardsVerified int `json:"shards_verified"`
	// Phase-split client counters.
	ErrorsBeforeKill       int64 `json:"errors_before_kill"`
	ErrorsDuringOutage     int64 `json:"errors_during_outage"`
	ErrorsAfterRecovery    int64 `json:"errors_after_recovery"`
	DecisionsAfterRecovery int64 `json:"decisions_after_recovery"`
}

// eventWriter appends chaos lifecycle events as JSONL — the artifact a
// CI run uploads so a failed chaos stage can be reconstructed offline.
// A nil *eventWriter is a no-op.
type eventWriter struct {
	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
	clk clock.Clock
	t0  time.Time
}

func newEventWriter(path string, clk clock.Clock) (*eventWriter, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("creating chaos eventlog %s: %w", path, err)
	}
	return &eventWriter{f: f, enc: json.NewEncoder(f), clk: clk, t0: clk.Now()}, nil
}

func (e *eventWriter) emit(event string, fields map[string]any) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	line := map[string]any{
		"wall_seconds": e.clk.Since(e.t0).Seconds(),
		"event":        event,
	}
	for k, v := range fields {
		line[k] = v
	}
	if err := e.enc.Encode(line); err != nil {
		log.Printf("3golpermitload: chaos eventlog: %v", err)
	}
}

func (e *eventWriter) close() {
	if e == nil {
		return
	}
	e.f.Close()
}

// spawnPermitd starts a real 3golpermitd on addr with the harness's
// cell population fed over stdin, and leaves stdin open so the feed
// goroutine stays alive for the daemon's lifetime.
func spawnPermitd(o options, addr string) (*exec.Cmd, io.WriteCloser, error) {
	cmd := exec.Command(o.permitd,
		"-listen", addr,
		"-shards", strconv.Itoa(o.shards),
		"-threshold", strconv.FormatFloat(o.threshold, 'f', -1, 64),
		"-ttl", o.ttl.String(),
		"-wal", o.walRoot,
		"-stdin-feed",
		"-deny-unknown",
	)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, nil, fmt.Errorf("opening %s stdin: %w", o.permitd, err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("starting %s: %w", o.permitd, err)
	}
	for i := 0; i < o.cells; i++ {
		if _, err := fmt.Fprintf(stdin, "%s %g\n", cellName(i), cellUtil(i)); err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, nil, fmt.Errorf("feeding %s: %w", o.permitd, err)
		}
	}
	return cmd, stdin, nil
}

// shardRecovery is the /debug/shards slice element the harness needs.
type shardRecovery struct {
	Shard    int                   `json:"shard"`
	Recovery *permitplane.Recovery `json:"recovery"`
}

func fetchShards(url string) ([]shardRecovery, error) {
	resp, err := http.Get(url + "/debug/shards")
	if err != nil {
		return nil, fmt.Errorf("fetching %s/debug/shards: %w", url, err)
	}
	defer resp.Body.Close()
	var out []shardRecovery
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding /debug/shards: %w", err)
	}
	return out, nil
}

// runChaos is the -chaos entry point: real daemon, real kill, real
// recovery, with the load fleet running throughout.
func runChaos(o options) (*result, error) {
	if o.backend != "" {
		return nil, errors.New("-chaos spawns its own daemon; drop -backend")
	}
	if o.permitd == "" {
		return nil, errors.New("-chaos requires -permitd <path to a 3golpermitd binary>")
	}
	if o.killAfter <= 0 || o.killAfter >= 1 {
		return nil, fmt.Errorf("-kill-after %v outside (0,1)", o.killAfter)
	}
	if o.walRoot == "" {
		dir, err := os.MkdirTemp("", "3gol-chaos-wal-*")
		if err != nil {
			return nil, fmt.Errorf("creating WAL temp dir: %w", err)
		}
		defer os.RemoveAll(dir)
		o.walRoot = dir
	}
	clk := clock.System
	ev, err := newEventWriter(o.eventsPath, clk)
	if err != nil {
		return nil, err
	}
	defer ev.close()

	// A fixed port, so the restarted daemon comes back where the fleet
	// expects it — client recovery without reconfiguration is part of
	// what the chaos run proves.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	backendURL := "http://" + addr

	cmd, stdin, err := spawnPermitd(o, addr)
	if err != nil {
		return nil, err
	}
	defer stdin.Close()
	ev.emit("daemon_start", map[string]any{"pid": cmd.Process.Pid, "addr": addr, "wal": o.walRoot})
	if err := waitReady(clk, backendURL, 10*time.Second); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, err
	}

	transport := &http.Transport{
		MaxIdleConns:        o.workers * 2,
		MaxIdleConnsPerHost: o.workers * 2,
	}
	defer transport.CloseIdleConnections()
	f := newFleet(o, backendURL, transport)
	fleetDone := make(chan struct{})
	t0 := clk.Now()
	go func() {
		f.run()
		close(fleetDone)
	}()

	// Let the fleet build up real grant state, then pull the plug.
	wallDuration := time.Duration(o.duration / o.timescale * float64(time.Second))
	clk.Sleep(time.Duration(o.killAfter * float64(wallDuration)))
	killAt := clk.Since(t0)
	// Flip the phase BEFORE the kill so every error the kill causes —
	// including RPCs already in flight — lands in the outage bucket.
	f.phase.Store(phaseOutage)
	ev.emit("kill", map[string]any{"pid": cmd.Process.Pid, "signal": "SIGKILL"})
	if err := cmd.Process.Kill(); err != nil {
		return nil, fmt.Errorf("killing daemon: %w", err)
	}
	cmd.Wait()
	stdin.Close()
	tKill := clk.Now()
	log.Printf("3golpermitload: chaos — SIGKILLed daemon pid %d at %.2fs", cmd.Process.Pid, killAt.Seconds())

	// Independent replay while the daemon is dead and the WAL
	// quiescent: this is the pre-kill state the recovery must match.
	states := make([]*wal.State, o.shards)
	var replayed int64
	preKill := 0
	for i := range states {
		st, stats, err := wal.Replay(permitplane.ShardWALDir(o.walRoot, i))
		if err != nil {
			return nil, fmt.Errorf("chaos: independent replay of shard %d: %w", i, err)
		}
		if err := st.Check(); err != nil {
			return nil, fmt.Errorf("chaos: independent replay of shard %d: %w", i, err)
		}
		states[i] = st
		replayed += stats.RecordsReplayed
		preKill += len(st.Grants)
		ev.emit("replayed", map[string]any{
			"shard": i, "grants": len(st.Grants), "seq": st.Seq,
			"records": stats.RecordsReplayed, "torn_bytes": stats.TornBytes,
		})
	}

	// Hold the daemon down for a real outage window. The replay above
	// and the restart itself take single-digit milliseconds, which can
	// slip between two client batch flushes — the fleet would never
	// notice the daemon died, and an outage nobody observed proves
	// nothing about degraded-mode behaviour.
	if left := o.downtime - clk.Since(tKill); left > 0 {
		clk.Sleep(left)
	}

	// Restart on the same address against the same WAL.
	cmd2, stdin2, err := spawnPermitd(o, addr)
	if err != nil {
		return nil, fmt.Errorf("chaos: restarting daemon: %w", err)
	}
	defer stdin2.Close()
	ev.emit("daemon_restart", map[string]any{"pid": cmd2.Process.Pid})
	if err := waitReady(clk, backendURL, 10*time.Second); err != nil {
		cmd2.Process.Kill()
		cmd2.Wait()
		return nil, fmt.Errorf("chaos: restarted daemon never came up: %w", err)
	}
	outage := clk.Since(tKill)
	f.phase.Store(phaseRecovered)
	ev.emit("recovered", map[string]any{"outage_seconds": outage.Seconds()})
	log.Printf("3golpermitload: chaos — daemon back after %.3fs outage", outage.Seconds())

	// Cross-check every shard: the daemon's recovered state hash must
	// equal our replay after filtering the TTL expiries that lapsed at
	// the daemon's recovery instant. The daemon folded one OpExpire
	// record per lapsed grant through Apply (advancing its sequence
	// number and expiry counter), so the mirror is ExpireDue + the same
	// seq and counter bumps.
	shards, err := fetchShards(backendURL)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	ch := &chaosResult{
		KillAtWallSeconds: killAt.Seconds(),
		OutageSeconds:     outage.Seconds(),
		PreKillGrants:     preKill,
		ReplayedRecords:   replayed,
	}
	for _, ss := range shards {
		rec := ss.Recovery
		if rec == nil {
			return nil, fmt.Errorf("chaos: shard %d reports no recovery stats after restart", ss.Shard)
		}
		if ss.Shard < 0 || ss.Shard >= len(states) {
			return nil, fmt.Errorf("chaos: shard index %d outside the %d-shard plane", ss.Shard, len(states))
		}
		st := states[ss.Shard]
		expired := st.ExpireDue(rec.RecoveredAt)
		st.Seq += uint64(len(expired))
		st.TotalExpiries += uint64(len(expired))
		if h := permitplane.HashState(st); h != rec.StateHash {
			return nil, fmt.Errorf("chaos: shard %d diverged across kill -9: independent replay %s, daemon recovered %s (%d grants vs %d)",
				ss.Shard, h, rec.StateHash, len(st.Grants), rec.RecoveredGrants)
		}
		ch.ShardsVerified++
		ch.RecoveredGrants += rec.RecoveredGrants
		ch.ExpiredOnRecovery += rec.ExpiredOnRecovery
		if rec.Seconds > ch.RecoverySeconds {
			ch.RecoverySeconds = rec.Seconds
		}
	}
	ev.emit("verified", map[string]any{
		"shards": ch.ShardsVerified, "recovered_grants": ch.RecoveredGrants,
		"expired_on_recovery": ch.ExpiredOnRecovery, "recovery_seconds": ch.RecoverySeconds,
	})
	log.Printf("3golpermitload: chaos — %d shards verified, %d grants recovered (%d expired during outage), slowest replay %.3fs",
		ch.ShardsVerified, ch.RecoveredGrants, ch.ExpiredOnRecovery, ch.RecoverySeconds)

	// Let the load finish against the recovered daemon, then stop it
	// gracefully (its own drain path flushes the final snapshot).
	<-fleetDone
	cmd2.Process.Signal(syscall.SIGTERM)
	cmd2.Wait()
	ev.emit("daemon_stop", map[string]any{"pid": cmd2.Process.Pid})

	for _, ws := range f.workers {
		ch.ErrorsBeforeKill += ws.phaseErrors[phaseBeforeKill]
		ch.ErrorsDuringOutage += ws.phaseErrors[phaseOutage]
		ch.ErrorsAfterRecovery += ws.phaseErrors[phaseRecovered]
		ch.DecisionsAfterRecovery += ws.phaseDecisions[phaseRecovered]
	}
	res := f.report(o)
	res.Chaos = ch
	return res, nil
}

// checkChaosSmoke asserts the chaos invariants the CI smoke stage
// relies on. Outage-phase errors are expected (they prove the kill
// landed mid-load); everything else must look like a healthy run that
// survived one.
func checkChaosSmoke(r *result) error {
	ch := r.Chaos
	switch {
	case ch == nil:
		return errors.New("no chaos report")
	case r.Grants+r.Denials != r.Decisions:
		return fmt.Errorf("grants %d + denials %d != decisions %d (a client outcome was double-counted or lost)",
			r.Grants, r.Denials, r.Decisions)
	case ch.ErrorsBeforeKill != 0:
		return fmt.Errorf("%d client errors before the kill (the daemon was unhealthy before chaos started)", ch.ErrorsBeforeKill)
	case ch.ErrorsDuringOutage == 0:
		return errors.New("no client errors during the outage — the kill missed the load window")
	case ch.DecisionsAfterRecovery == 0:
		return errors.New("no decisions after recovery — clients never came back")
	case ch.RecoveredGrants == 0:
		return errors.New("no grants survived the kill — the WAL recovered nothing")
	case ch.ShardsVerified != r.Shards:
		return fmt.Errorf("%d of %d shard state hashes verified", ch.ShardsVerified, r.Shards)
	}
	return nil
}
