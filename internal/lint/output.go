package lint

import (
	"encoding/json"
	"io"
)

// Report is the machine-readable result of one 3golvet run, consumed by
// check.sh (the CI artifact vet-report.json) and scripts/bench.sh
// (vet_seconds in BENCH_fleet.json).
type Report struct {
	Tool           string    `json:"tool"`
	ElapsedSeconds float64   `json:"elapsed_seconds"`
	Packages       int       `json:"packages"`
	Fresh          []Finding `json:"fresh"`
}

// Finding is one diagnostic in report form.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Findings converts diagnostics for serialization, returning an empty
// (non-nil) slice so JSON renders [] rather than null.
func Findings(diags []Diagnostic) []Finding {
	out := make([]Finding, 0, len(diags))
	for _, d := range diags {
		out = append(out, Finding{
			File:     d.Position.Filename,
			Line:     d.Position.Line,
			Column:   d.Position.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return out
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
