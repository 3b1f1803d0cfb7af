package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"threegol/internal/fault"
	"threegol/internal/obs/eventlog"
)

func chaosJSON(t *testing.T, cfg ChaosConfig, workers int) []byte {
	t.Helper()
	res, err := RunChaos(cfg, workers)
	if err != nil {
		t.Fatalf("RunChaos(workers=%d): %v", workers, err)
	}
	out, err := json.Marshal(res.Report(cfg.Scenario))
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return out
}

// TestRunChaosDeterministicAcrossWorkers is the harness's acceptance
// gate: the merged chaos report is byte-identical for every worker
// count, faults and all.
func TestRunChaosDeterministicAcrossWorkers(t *testing.T) {
	for _, sc := range []fault.Scenario{fault.ScenarioNone, fault.ScenarioFlaky, fault.ScenarioHostile} {
		cfg := ChaosConfig{Homes: 24, Shards: 8, Seed: 42, Scenario: sc}
		base := chaosJSON(t, cfg, 1)
		for _, workers := range []int{4, 16} {
			got := chaosJSON(t, cfg, workers)
			if !bytes.Equal(base, got) {
				t.Errorf("%s: workers=%d diverged from workers=1:\n  1:  %s\n  %d: %s",
					sc, workers, base, workers, got)
			}
		}
	}
}

// TestRunChaosInvariants runs every catalogued scenario and checks the
// resilience invariants hold: no lost or duplicated deliveries, the
// duplicate-waste bound respected, and no failed transactions (ADSL is
// never faulted, so the scheduler must always finish).
func TestRunChaosInvariants(t *testing.T) {
	for _, sc := range fault.Scenarios() {
		rep := runChaosReport(t, ChaosConfig{Homes: 16, Seed: 7, Scenario: sc})
		if !rep.Healthy() {
			t.Errorf("%s: unhealthy report: %+v", sc, rep)
		}
		if rep.Delivered != rep.Items {
			t.Errorf("%s: delivered %d of %d items", sc, rep.Delivered, rep.Items)
		}
	}
}

func runChaosReport(t *testing.T, cfg ChaosConfig) ChaosReport {
	t.Helper()
	res, err := RunChaos(cfg, 4)
	if err != nil {
		t.Fatalf("RunChaos(%+v): %v", cfg, err)
	}
	return res.Report(cfg.withDefaults().Scenario)
}

// TestRunChaosBlackoutAllDegradesToADSL pins graceful degradation at
// fleet scale: with every phone dead for the whole run, 100% of items
// still complete, all of them over ADSL.
func TestRunChaosBlackoutAllDegradesToADSL(t *testing.T) {
	rep := runChaosReport(t, ChaosConfig{Homes: 12, Seed: 3, Scenario: fault.ScenarioBlackoutAll})
	if rep.Delivered != rep.Items {
		t.Fatalf("blackout-all: delivered %d of %d items", rep.Delivered, rep.Items)
	}
	if rep.PhoneItems != 0 {
		t.Errorf("blackout-all: phones carried %d items, want 0", rep.PhoneItems)
	}
	if rep.ADSLItems != rep.Items {
		t.Errorf("blackout-all: ADSL carried %d of %d items", rep.ADSLItems, rep.Items)
	}
	if rep.BreakerOpens == 0 {
		t.Error("blackout-all: breaker never opened on the dead phones")
	}
	if !rep.Healthy() {
		t.Errorf("blackout-all: unhealthy report: %+v", rep)
	}
}

// TestRunChaosHostileExercisesResilience checks the hostile scenario
// actually drives the machinery it is meant to test.
func TestRunChaosHostileExercisesResilience(t *testing.T) {
	rep := runChaosReport(t, ChaosConfig{Homes: 16, Seed: 11, Scenario: fault.ScenarioHostile})
	if rep.Requeues == 0 {
		t.Error("hostile: no requeues — faults never landed mid-transfer")
	}
	if rep.FailureWaste == 0 {
		t.Error("hostile: no failure waste — killed attempts left no trace")
	}
}

// TestRunChaosEvents checks the chaos flight recorder: one span per
// transaction, structurally sound, and byte-identical across worker
// counts like everything else.
func TestRunChaosEvents(t *testing.T) {
	cfg := ChaosConfig{Homes: 10, Shards: 4, Seed: 5, Scenario: fault.ScenarioFlaky, Events: true}
	res, err := RunChaos(cfg, 1)
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	log := res.EventLog()
	if log == nil {
		t.Fatal("Events: true but EventLog() == nil")
	}
	events := log.Events()
	if _, err := eventlog.Check(events); err != nil {
		t.Fatalf("eventlog.Check: %v", err)
	}
	begins := 0
	for _, ev := range events {
		if ev.Kind == eventlog.KindBegin && ev.Name == "chaos.transaction" {
			begins++
		}
	}
	if begins != cfg.Homes {
		t.Errorf("chaos.transaction spans = %d, want %d", begins, cfg.Homes)
	}

	var buf1, buf4 bytes.Buffer
	if err := log.WriteJSONL(&buf1); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	res4, err := RunChaos(cfg, 4)
	if err != nil {
		t.Fatalf("RunChaos(workers=4): %v", err)
	}
	if err := res4.EventLog().WriteJSONL(&buf4); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if !bytes.Equal(buf1.Bytes(), buf4.Bytes()) {
		t.Error("chaos eventlog diverged between workers=1 and workers=4")
	}
}

func TestRunChaosValidation(t *testing.T) {
	if _, err := RunChaos(ChaosConfig{Homes: 0}, 1); err == nil {
		t.Error("Homes: 0 accepted")
	}
	if _, err := RunChaos(ChaosConfig{Homes: 4, Scenario: "earthquake"}, 1); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestRunChaosGolden pins the full chaos report of every catalogued
// scenario against a file generated before the scheduler core was
// shared with the live driver: a change to the decision code that moves
// any simulated outcome — a tie broken the other way, a jitter draw
// reordered — shows up here as a diff, not as a silently different
// fleet. Regenerate only for an intended behaviour change:
// go test ./internal/fleet -run TestRunChaosGolden -update.
func TestRunChaosGolden(t *testing.T) {
	var reports []ChaosReport
	for _, sc := range fault.Scenarios() {
		cfg := ChaosConfig{Homes: 1024, Shards: 8, Seed: 1, Scenario: sc}
		res, err := RunChaos(cfg, 4)
		if err != nil {
			t.Fatalf("RunChaos(%s): %v", sc, err)
		}
		reports = append(reports, res.Report(sc))
	}
	b, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := string(b) + "\n"
	path := filepath.Join("testdata", "golden_chaos.json")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/fleet -run TestRunChaosGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("chaos reports drifted from golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
