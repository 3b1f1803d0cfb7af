package lint

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestReportJSON(t *testing.T) {
	report := &Report{
		Tool:           "3golvet",
		ElapsedSeconds: 1.25,
		Packages:       7,
		Fresh: []Finding{{
			File: "a.go", Line: 10, Column: 2,
			Analyzer: "lockio", Message: "I/O under lock",
		}},
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if got.Tool != "3golvet" || got.ElapsedSeconds != 1.25 || got.Packages != 7 {
		t.Errorf("header fields round-tripped wrong: %+v", got)
	}
	if len(got.Fresh) != 1 || got.Fresh[0].Analyzer != "lockio" {
		t.Errorf("fresh findings round-tripped wrong: %+v", got.Fresh)
	}
	// bench.sh greps elapsed_seconds out of the artifact: pin the key.
	if !bytes.Contains(buf.Bytes(), []byte(`"elapsed_seconds"`)) {
		t.Errorf("JSON missing elapsed_seconds key:\n%s", buf.String())
	}
}
