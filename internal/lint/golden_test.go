package lint

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the .golden files under testdata")

// goldenFixtures lists the fixture packages under testdata/src. Each is
// loaded under import path "fixture/<name>" (after its deps) and its
// diagnostics are compared line-for-line against <dir>/expected.golden.
var goldenFixtures = []struct {
	name string
	deps []string // fixture packages loaded first, resolvable by import
}{
	{name: "simwall"},
	{name: "obswall"},
	{name: "eventlogwall"},
	{name: "realwall"},
	{name: "randglobal"},
	{name: "locks"},
	{name: "droppederr", deps: []string{"errpkg"}},
	{name: "clean"},
	{name: "fleetrng"},
	{name: "faultwall"},
	{name: "lockio"},
	{name: "ctxprop"},
	{name: "maporder"},
	{name: "goroleak"},
	{name: "staleallow"},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenFixtures {
		t.Run(tc.name, func(t *testing.T) {
			prog := NewProgram()
			for _, dep := range append(tc.deps, tc.name) {
				dir := filepath.Join("testdata", "src", dep)
				if _, err := prog.LoadDir(dir, "fixture/"+dep); err != nil {
					t.Fatalf("LoadDir(%s): %v", dir, err)
				}
			}
			prog.TypeCheck()
			var lines []string
			for _, d := range prog.Run(Analyzers()) {
				// Deps are loaded too, but only the fixture's own file
				// is compared against its golden.
				if filepath.Base(filepath.Dir(d.Position.Filename)) != tc.name {
					continue
				}
				d.Position.Filename = filepath.Base(d.Position.Filename)
				lines = append(lines, d.String())
			}
			got := strings.Join(lines, "\n")
			if got != "" {
				got += "\n"
			}

			goldenPath := filepath.Join("testdata", "src", tc.name, "expected.golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run go test -run TestGolden -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestSuppressionScope pins the directive semantics: an allow suppresses
// on its own line and the line below, and only for the named analyzer.
func TestSuppressionScope(t *testing.T) {
	f := &File{allow: map[int][]*allowEntry{
		10: {{name: "wallclock"}},
		20: {{name: "wallclock"}, {name: "randsource"}},
	}}
	cases := []struct {
		analyzer string
		line     int
		want     bool
	}{
		{"wallclock", 10, true},  // same line
		{"wallclock", 11, true},  // line below a directive
		{"wallclock", 12, false}, // two lines below: out of scope
		{"wallclock", 9, false},  // directive does not reach upward
		{"randsource", 10, false},
		{"randsource", 20, true}, // multi-analyzer directive
		{"locksafe", 21, false},
	}
	for _, c := range cases {
		if got := f.Allowed(c.analyzer, c.line); got != c.want {
			t.Errorf("Allowed(%q, %d) = %v, want %v", c.analyzer, c.line, got, c.want)
		}
	}
}

// TestVetCommand builds the cmd/3golvet binary and runs it against
// fixture directories, asserting the contract check.sh relies on: exit
// 1 when findings survive, 0 on a clean tree, 2 on a flag it does not
// define; the -json artifact lists the findings; -json - leaves stdout
// to the report alone; and a run ends on an import that names no Go
// package. Each run is bounded, so a loader that never terminates fails
// the test rather than hanging the suite.
func TestVetCommand(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "3golvet")
	if out, err := exec.Command("go", "build", "-o", bin, "threegol/cmd/3golvet").CombinedOutput(); err != nil {
		t.Fatalf("go build 3golvet: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr string, code int) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		cmd := exec.CommandContext(ctx, bin, args...)
		var outBuf, errBuf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
		err := cmd.Run()
		if ctx.Err() != nil {
			t.Fatalf("3golvet %s did not finish within the timeout", strings.Join(args, " "))
		}
		if err != nil {
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("3golvet %s: %v", strings.Join(args, " "), err)
			}
			code = ee.ExitCode()
		}
		return outBuf.String(), errBuf.String(), code
	}
	wantLocksafe := func(name string, rep Report) {
		t.Helper()
		if len(rep.Fresh) != 4 {
			t.Fatalf("%s: %d fresh findings, want the locks fixture's 4: %+v", name, len(rep.Fresh), rep.Fresh)
		}
		for _, f := range rep.Fresh {
			if f.Analyzer != "locksafe" {
				t.Errorf("%s: finding %+v, want locksafe", name, f)
			}
		}
	}

	out, _, code := run("./testdata/src/locks")
	if code != 1 {
		t.Fatalf("exit code on violating fixture = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "[locksafe]") {
		t.Errorf("stdout missing [locksafe] finding:\n%s", out)
	}

	out, errOut, code := run("./testdata/src/clean")
	if code != 0 || out != "" || errOut != "" {
		t.Fatalf("clean fixture: exit %d, want 0 and no output\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}

	// check.sh's artifact: any finding still fails the run, and the
	// report names every one of them.
	artifact := filepath.Join(tmp, "vet-report.json")
	out, _, code = run("-json", artifact, "./testdata/src/locks")
	if code != 1 {
		t.Fatalf("-json run exit = %d, want 1 (findings fail)\n%s", code, out)
	}
	data, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("artifact is not a Report: %v\n%s", err, data)
	}
	wantLocksafe("-json file", rep)

	// With the report on stdout, the finding lines move to stderr.
	out, errOut, code = run("-json", "-", "./testdata/src/locks")
	if code != 1 {
		t.Fatalf("-json - exit = %d, want 1\n%s", code, errOut)
	}
	rep = Report{}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json - stdout is not one Report: %v\n%s", err, out)
	}
	wantLocksafe("-json -", rep)
	if !strings.Contains(errOut, "[locksafe]") {
		t.Errorf("-json - stderr missing [locksafe] finding:\n%s", errOut)
	}

	out, errOut, code = run("./testdata/src/missingdep")
	if code != 0 {
		t.Fatalf("missingdep fixture: exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}

	for _, flag := range []string{"-baseline=x", "-writebaseline", "-sarif=x", "-fix"} {
		if _, _, code := run(flag, "./testdata/src/clean"); code != 2 {
			t.Errorf("3golvet %s exit = %d, want 2 (no such flag)", flag, code)
		}
	}
}
