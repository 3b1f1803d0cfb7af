package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"
)

func names(exps []Experiment) []string {
	var out []string
	for _, e := range exps {
		out = append(out, e.Name)
	}
	return out
}

func TestSimSelectsEveryExperimentNotLive(t *testing.T) {
	var notLive, live []string
	for _, e := range Table {
		if e.Live {
			live = append(live, e.Name)
		} else {
			notLive = append(notLive, e.Name)
		}
	}
	if got := names(Select("sim")); !reflect.DeepEqual(got, notLive) {
		t.Errorf("sim selects %v, want %v", got, notLive)
	}
	sort.Strings(live)
	if want := []string{"ablation", "fig6", "fig7", "fig8", "fig9", "lte"}; !reflect.DeepEqual(live, want) {
		t.Errorf("live experiments %v, want %v", live, want)
	}
	if got := names(Select("fig11a")); !reflect.DeepEqual(got, []string{"fig11a"}) {
		t.Errorf("fig11a selects %v", got)
	}
	if got := Select("fig2"); len(got) != 0 {
		t.Errorf("unknown name selects %v", names(got))
	}
}

// TestSimRowsAreWellFormedAndDeterministic runs sim twice with the
// default configuration: every experiment returns rows with unique keys,
// units and finite values, the second run's rows equal the first's, and
// the JSON writer carries them unchanged.
func TestSimRowsAreWellFormedAndDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	first, err := Run(Select("sim"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(Select("sim"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range first {
		if len(res.Rows) == 0 {
			t.Errorf("%s returned no rows", res.Experiment)
		}
		seen := map[string]bool{}
		for _, r := range res.Rows {
			if seen[r.Key] {
				t.Errorf("%s: duplicate key %q", res.Experiment, r.Key)
			}
			seen[r.Key] = true
			if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
				t.Errorf("%s: %s = %v", res.Experiment, r.Key, r.Value)
			}
			if r.Unit == "" {
				t.Errorf("%s: %s has no unit", res.Experiment, r.Key)
			}
		}
		if !reflect.DeepEqual(res.Rows, second[i].Rows) {
			t.Errorf("%s: rows differ between two runs", res.Experiment)
		}
	}

	var buf bytes.Buffer
	if err := Write(&buf, first, true); err != nil {
		t.Fatal(err)
	}
	var decoded []Result
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, first) {
		t.Error("JSON output does not decode to the results written")
	}
}
