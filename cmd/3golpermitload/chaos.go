// Chaos mode: instead of an in-process plane, the harness spawns a
// real 3golpermitd with a WAL, SIGKILLs it mid-load, copies the WAL
// while the daemon is dead, restarts the daemon on the same port, and
// recovers each copy with the daemon's own OpenGrantStore at the
// daemon's recovery instant, which must reproduce the daemon's recovery
// — the process-level proof of "replay equals pre-kill state modulo
// TTL expiries" under real concurrent load, not just in unit tests.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"threegol/internal/clock"
	"threegol/internal/obs/eventlog"
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
	// PreKillGrants is what a read-only replay of the dead daemon's WAL
	// reconstructed; RecoveredGrants is what the restarted daemon
	// reports (PreKill minus outage TTL expiries).
	PreKillGrants     int `json:"pre_kill_grants"`
	RecoveredGrants   int `json:"recovered_grants"`
	ExpiredOnRecovery int `json:"expired_on_recovery"`
	// ReplayedRecords counts WAL records the read-only replay applied
	// across all shards.
	ReplayedRecords int64 `json:"replayed_records"`
	// ShardsVerified counts shards whose recovery verifyRecovery
	// reproduced. Anything less aborts the run before this report
	// exists, so it equals the shard count — recorded anyway so the
	// report is self-describing.
	ShardsVerified int `json:"shards_verified"`
	// Phase-split client counters.
	ErrorsBeforeKill       int64 `json:"errors_before_kill"`
	ErrorsDuringOutage     int64 `json:"errors_during_outage"`
	ErrorsAfterRecovery    int64 `json:"errors_after_recovery"`
	DecisionsAfterRecovery int64 `json:"decisions_after_recovery"`
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

func fetchShards(url string) ([]permitplane.ShardStatus, error) {
	resp, err := http.Get(url + "/debug/shards")
	if err != nil {
		return nil, fmt.Errorf("fetching %s/debug/shards: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetching %s/debug/shards: %s", url, resp.Status)
	}
	var out []permitplane.ShardStatus
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding /debug/shards: %w", err)
	}
	return out, nil
}

// fixedClock reads one instant until it is moved.
type fixedClock struct{ at time.Time }

func (c *fixedClock) Now() time.Time                  { return c.at }
func (c *fixedClock) Since(t time.Time) time.Duration { return c.at.Sub(t) }
func (c *fixedClock) Sleep(d time.Duration)           { c.at = c.at.Add(d) }

// copyDir copies the files of a quiescent shard directory into dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err == nil {
		err = os.MkdirAll(dst, 0o755)
	}
	for _, e := range entries {
		var b []byte
		if err == nil {
			b, err = os.ReadFile(filepath.Join(src, e.Name()))
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644)
		}
	}
	return err
}

// verifyRecovery requires every shard 0..len(copies)-1 reported exactly
// once, and the daemon's own OpenGrantStore, run on copies[i] (shard
// i's WAL as the kill left it) at shard i's recovery instant, to reach
// the daemon's Recovery: state hash, grant and expiry counts, WAL stats.
func verifyRecovery(copies []string, shards []permitplane.ShardStatus) (verified int, err error) {
	byShard := make([]*permitplane.Recovery, len(copies))
	for _, ss := range shards {
		switch {
		case ss.Shard < 0 || ss.Shard >= len(copies) || ss.Recovery == nil:
			return 0, fmt.Errorf("shard %d: no recovery stats in a %d-shard plane", ss.Shard, len(copies))
		case byShard[ss.Shard] != nil:
			return 0, fmt.Errorf("shard %d reported twice", ss.Shard)
		}
		byShard[ss.Shard] = ss.Recovery
	}
	for i, want := range byShard {
		if want == nil {
			return 0, fmt.Errorf("shard %d not reported", i)
		}
		st, err := permitplane.OpenGrantStore(copies[i], &fixedClock{at: time.Unix(0, want.RecoveredAt)}, permitplane.Metrics{}, 0)
		if err != nil {
			return 0, fmt.Errorf("shard %d: recovering the copied WAL: %w", i, err)
		}
		got := st.Recovery()
		_ = st.Close()             // the copy is thrown away
		got.Seconds = want.Seconds // wall time: the one field a second replay need not reproduce
		if got != *want {
			return 0, fmt.Errorf("shard %d diverged across kill -9: the copy recovered %+v, the daemon %+v", i, got, *want)
		}
		verified++
	}
	return verified, nil
}

// runChaos is the -chaos entry point: real daemon, real kill, real
// recovery, with the load fleet running throughout. With -events, the
// lifecycle is written as an eventlog stream — one permitload.chaos
// span, one point per step — on every return, so a failed run can be
// reconstructed offline.
func runChaos(o options) (res *result, err error) {
	clk := clock.System
	ev := eventlog.New(0, o.seed, eventlog.SinceStart(clk))
	run := ev.Begin(eventlog.TraceContext{}, "permitload.chaos")
	step := func(name string, attrs ...string) { ev.Point(run.Context(), name, attrs...) }
	defer func() {
		if err != nil {
			run.End("error", err.Error())
		} else {
			run.End()
		}
		if o.eventsPath != "" {
			var buf bytes.Buffer
			_ = ev.WriteJSONL(&buf) // a bytes.Buffer write cannot fail
			if werr := os.WriteFile(o.eventsPath, buf.Bytes(), 0o644); werr != nil && err == nil {
				err = fmt.Errorf("writing chaos eventlog: %w", werr)
			}
		}
	}()

	if o.backend != "" {
		return nil, errors.New("-chaos spawns its own daemon; drop -backend")
	}
	if o.permitd == "" {
		return nil, errors.New("-chaos requires -permitd <path to a 3golpermitd binary>")
	}
	if o.killAfter <= 0 || o.killAfter >= 1 {
		return nil, fmt.Errorf("-kill-after %v outside (0,1)", o.killAfter)
	}
	tmp, err := os.MkdirTemp("", "3gol-chaos-*")
	if err != nil {
		return nil, fmt.Errorf("creating temp dir: %w", err)
	}
	defer os.RemoveAll(tmp)
	if o.walRoot == "" {
		o.walRoot = filepath.Join(tmp, "wal")
	}

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
	step("daemon_start", "pid", eventlog.Int(int64(cmd.Process.Pid)), "addr", addr, "wal", o.walRoot)
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
	step("kill", "pid", eventlog.Int(int64(cmd.Process.Pid)), "signal", "SIGKILL")
	if err := cmd.Process.Kill(); err != nil {
		return nil, fmt.Errorf("killing daemon: %w", err)
	}
	cmd.Wait()
	stdin.Close()
	tKill := clk.Now()
	log.Printf("3golpermitload: chaos — SIGKILLed daemon pid %d at %.2fs", cmd.Process.Pid, killAt.Seconds())

	// While the daemon is dead and the WAL quiescent: count the pre-kill
	// state with a read-only replay, and copy each shard's directory for
	// verifyRecovery (the restart rewrites the originals).
	copies := make([]string, o.shards)
	var replayed int64
	preKill := 0
	for i := range copies {
		dir := permitplane.ShardWALDir(o.walRoot, i)
		st, stats, err := wal.Replay(dir)
		if err == nil {
			err = st.Check()
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: replaying shard %d: %w", i, err)
		}
		replayed += stats.RecordsReplayed
		preKill += len(st.Grants)
		copies[i] = permitplane.ShardWALDir(filepath.Join(tmp, "copy"), i)
		if err := copyDir(dir, copies[i]); err != nil {
			return nil, fmt.Errorf("chaos: copying shard %d: %w", i, err)
		}
		step("replayed", "shard", eventlog.Int(int64(i)), "grants", eventlog.Int(int64(len(st.Grants))),
			"seq", eventlog.Int(int64(st.Seq)), "records", eventlog.Int(stats.RecordsReplayed),
			"torn_bytes", eventlog.Int(stats.TornBytes))
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
	step("daemon_restart", "pid", eventlog.Int(int64(cmd2.Process.Pid)))
	if err := waitReady(clk, backendURL, 10*time.Second); err != nil {
		cmd2.Process.Kill()
		cmd2.Wait()
		return nil, fmt.Errorf("chaos: restarted daemon never came up: %w", err)
	}
	outage := clk.Since(tKill)
	f.phase.Store(phaseRecovered)
	step("recovered", "outage_seconds", eventlog.Float(outage.Seconds()))
	log.Printf("3golpermitload: chaos — daemon back after %.3fs outage", outage.Seconds())

	ch := &chaosResult{
		KillAtWallSeconds: killAt.Seconds(),
		OutageSeconds:     outage.Seconds(),
		PreKillGrants:     preKill,
		ReplayedRecords:   replayed,
	}
	shards, err := fetchShards(backendURL)
	if err == nil {
		ch.ShardsVerified, err = verifyRecovery(copies, shards)
	}
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	for _, ss := range shards {
		ch.RecoveredGrants += ss.Recovery.RecoveredGrants
		ch.ExpiredOnRecovery += ss.Recovery.ExpiredOnRecovery
		ch.RecoverySeconds = max(ch.RecoverySeconds, ss.Recovery.Seconds)
	}
	step("verified", "shards", eventlog.Int(int64(ch.ShardsVerified)),
		"recovered_grants", eventlog.Int(int64(ch.RecoveredGrants)),
		"expired_on_recovery", eventlog.Int(int64(ch.ExpiredOnRecovery)),
		"recovery_seconds", eventlog.Float(ch.RecoverySeconds))
	log.Printf("3golpermitload: chaos — %d shards verified, %d grants recovered (%d expired during outage), slowest replay %.3fs",
		ch.ShardsVerified, ch.RecoveredGrants, ch.ExpiredOnRecovery, ch.RecoverySeconds)

	// Let the load finish against the recovered daemon, then stop it
	// gracefully (its own drain path flushes the final snapshot).
	<-fleetDone
	cmd2.Process.Signal(syscall.SIGTERM)
	cmd2.Wait()
	step("daemon_stop", "pid", eventlog.Int(int64(cmd2.Process.Pid)))

	for _, ws := range f.workers {
		ch.ErrorsBeforeKill += ws.phaseErrors[phaseBeforeKill]
		ch.ErrorsDuringOutage += ws.phaseErrors[phaseOutage]
		ch.ErrorsAfterRecovery += ws.phaseErrors[phaseRecovered]
		ch.DecisionsAfterRecovery += ws.phaseDecisions[phaseRecovered]
	}
	res = f.report(o)
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
	}
	return nil
}
