package fault

import (
	"math"
	"reflect"
	"testing"
)

func TestPlanQueries(t *testing.T) {
	p := NewPlan(
		Window{Target: "phone1", Kind: Blackout, Start: 2, End: 4},
		Window{Target: "phone1", Kind: Stall, Start: 6, End: 9},
		Window{Target: "phone2", Kind: Revoke, Start: 1, End: 3},
		Window{Target: "phone1", Kind: Reset, Start: 0.5, End: 1},
		Window{Target: "", Kind: Blackout, Start: 0, End: 1},    // dropped: empty target
		Window{Target: "phone1", Kind: Stall, Start: 5, End: 5}, // dropped: empty window
	)

	if len(p.byTarget) != 2 || len(p.byTarget["phone2"]) != 1 {
		t.Fatalf("targets = %+v; want phone1 and phone2", p.byTarget)
	}
	ws := p.byTarget["phone1"]
	if len(ws) != 3 || ws[0].Kind != Reset || ws[1].Kind != Blackout || ws[2].Kind != Stall {
		t.Fatalf("phone1's windows not sorted by start: %+v", ws)
	}

	if w, ok := p.ActiveAt("phone1", 3, Blackout, Depart); !ok || w.Kind != Blackout {
		t.Errorf("phone1 should be blacked out at t=3, got %+v, %v", w, ok)
	}
	if _, ok := p.ActiveAt("phone1", 4); ok {
		t.Errorf("windows are half-open: t=4 is outside [2,4)")
	}
	if _, ok := p.ActiveAt("phone1", 0.75, Reset); !ok {
		t.Errorf("phone1 should reset at t=0.75")
	}
	if w, ok := p.ActiveAt("phone1", 7, Stall); !ok || w.End != 9 {
		t.Errorf("ActiveAt(phone1, 7, Stall) = %+v, %v; want a window ending at 9", w, ok)
	}
	if _, ok := p.ActiveAt("phone2", 2, Revoke); !ok {
		t.Errorf("phone2 should be revoked at t=2")
	}
	if _, ok := p.ActiveAt("phone1", 7, Blackout, Depart, Revoke); ok {
		t.Errorf("a stall is not a blackout, departure or revocation")
	}

	if next := p.NextDisruption("phone1", 1.5); next != 2 {
		t.Errorf("NextDisruption(phone1, 1.5) = %v; want 2", next)
	}
	if next := p.NextDisruption("phone1", 10); !math.IsInf(next, 1) {
		t.Errorf("NextDisruption past the last window = %v; want +Inf", next)
	}

	// Nil plans answer every query harmlessly.
	var nilPlan *Plan
	if _, ok := nilPlan.ActiveAt("x", 0); ok || !math.IsInf(nilPlan.NextDisruption("x", 0), 1) {
		t.Errorf("nil plan must report no faults")
	}
}

func TestCompileDeterministic(t *testing.T) {
	targets := []string{"phone1", "phone2", "phone3"}
	for _, sc := range Scenarios() {
		a, err := Compile(sc, 42, targets, 60)
		if err != nil {
			t.Fatalf("Compile(%s): %v", sc, err)
		}
		b, err := Compile(sc, 42, targets, 60)
		if err != nil {
			t.Fatalf("Compile(%s): %v", sc, err)
		}
		for _, tg := range targets {
			if !reflect.DeepEqual(a.byTarget[tg], b.byTarget[tg]) {
				t.Errorf("%s: windows for %s differ between identical compiles", sc, tg)
			}
		}
	}
	// Different seeds must diverge for the randomised scenarios.
	a := MustCompile(ScenarioFlaky, 1, targets, 60)
	b := MustCompile(ScenarioFlaky, 2, targets, 60)
	if reflect.DeepEqual(a.byTarget["phone1"], b.byTarget["phone1"]) {
		t.Errorf("flaky: seeds 1 and 2 produced identical windows")
	}
}

func TestCompileBlackoutAll(t *testing.T) {
	p := MustCompile(ScenarioBlackoutAll, 7, []string{"phone1", "phone2"}, 30)
	for _, tg := range []string{"phone1", "phone2"} {
		ws := p.byTarget[tg]
		if len(ws) != 1 || ws[0].Kind != Blackout || ws[0].Start != 0 || !math.IsInf(ws[0].End, 1) {
			t.Fatalf("%s: want one eternal blackout, got %+v", tg, ws)
		}
	}
}

func TestParseScenario(t *testing.T) {
	if s, err := ParseScenario("hostile"); err != nil || s != ScenarioHostile {
		t.Fatalf("ParseScenario(hostile) = %v, %v", s, err)
	}
	if _, err := ParseScenario("nope"); err == nil {
		t.Fatalf("ParseScenario(nope) should fail")
	}
}

func TestMixSeedSpreads(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 64; i++ {
		seen[MixSeed(99, i, i*31)] = true
	}
	if len(seen) != 64 {
		t.Fatalf("MixSeed collisions: %d distinct of 64", len(seen))
	}
}
