// Command 3golvet is the repository's static analyzer. It enforces the
// determinism and concurrency invariants the trace-driven evaluation
// depends on: no wall-clock reads or global randomness in simulation
// packages, disciplined mutex usage, no locks held across I/O, context
// propagation through the data-plane API, deterministic map iteration in
// merge-reduce, joinable goroutines, and no silently dropped errors.
//
// Usage:
//
//	go run ./cmd/3golvet ./...                          # whole module
//	go run ./cmd/3golvet -json vet-report.json ./...    # CI artifact
//
// A pattern ending in /... is walked recursively (testdata, vendor and
// hidden directories are skipped). Findings print one per line as
//
//	file:line: [analyzer] message
//
// on stdout, or on stderr when -json - puts the report there. Any
// finding fails the run with exit status 1; a deliberate violation is
// kept with a //3golvet:allow directive at the site, which staleallow
// flags once it suppresses nothing. Bad arguments and load errors exit
// with status 2. See internal/lint for the analyzer catalogue.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"threegol/internal/lint"
)

func main() {
	jsonPath := flag.String("json", "", "write a JSON report to `file` (\"-\" for stdout)")
	flag.Parse()
	start := time.Now() //3golvet:allow wallclock — elapsed_seconds in the report measures real tool latency

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expandPatterns(patterns)
	if err != nil {
		fatal(err)
	}
	modRoot, modPath, err := findModule(".")
	if err != nil {
		fatal(err)
	}

	prog, err := load(dirs, modRoot, modPath)
	if err != nil {
		fatal(err)
	}
	diags := prog.Run(lint.Analyzers())

	lines := os.Stdout
	if *jsonPath != "" {
		report := &lint.Report{
			Tool:           "3golvet",
			ElapsedSeconds: time.Since(start).Seconds(), //3golvet:allow wallclock — elapsed_seconds in the report measures real tool latency
			Packages:       countTargets(prog),
			Fresh:          lint.Findings(diags),
		}
		if *jsonPath == "-" {
			lines = os.Stderr // stdout carries nothing but the report
			err = report.WriteJSON(os.Stdout)
		} else {
			err = writeReport(*jsonPath, report)
		}
		if err != nil {
			fatal(err)
		}
	}

	for _, d := range diags {
		fmt.Fprintln(lines, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "3golvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "3golvet: %v\n", err)
	os.Exit(2)
}

func writeReport(path string, report *lint.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// load parses the target directories, pulls in the module-local
// dependency closure as DepOnly packages (type checking and
// cross-package call facts need it; their own findings are not
// reported), and type-checks the result.
func load(dirs []string, modRoot, modPath string) (*lint.Program, error) {
	prog := lint.NewProgram()
	for _, dir := range dirs {
		ip, err := importPath(modRoot, modPath, dir)
		if err != nil {
			return nil, err
		}
		if _, err := prog.LoadDir(dir, ip); err != nil {
			return nil, err
		}
	}
	if err := loadDepClosure(prog, modRoot, modPath); err != nil {
		return nil, err
	}
	prog.TypeCheck()
	return prog, nil
}

// loadDepClosure repeatedly loads module-local imports of loaded
// packages until the closure is complete, marking them DepOnly. Each
// import path is tried once: one that names no Go package (a deleted
// or test-only directory) stays unloaded, and go/types reports it.
func loadDepClosure(prog *lint.Program, modRoot, modPath string) error {
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	tried := make(map[string]bool)
	for {
		missing := untriedModuleImports(prog, modPath, tried)
		if len(missing) == 0 {
			return nil
		}
		for _, ip := range missing {
			dir := filepath.Join(modRoot, filepath.FromSlash(strings.TrimPrefix(ip, modPath+"/")))
			if rel, err := filepath.Rel(cwd, dir); err == nil && !strings.HasPrefix(rel, "..") {
				dir = rel // keep report paths repo-relative
			}
			pkg, err := prog.LoadDir(dir, ip)
			if err != nil {
				if os.IsNotExist(err) {
					continue
				}
				return err
			}
			if pkg != nil {
				pkg.DepOnly = true
			}
		}
	}
}

// untriedModuleImports lists, sorted, the module-local import paths
// referenced by loaded files that are neither loaded nor in tried, and
// adds them to tried.
func untriedModuleImports(prog *lint.Program, modPath string, tried map[string]bool) []string {
	var out []string
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, spec := range f.AST.Imports {
				ip := strings.Trim(spec.Path.Value, `"`)
				if ip != modPath && !strings.HasPrefix(ip, modPath+"/") {
					continue
				}
				if tried[ip] || prog.Package(ip) != nil {
					continue
				}
				tried[ip] = true
				out = append(out, ip)
			}
		}
	}
	sort.Strings(out)
	return out
}

// countTargets counts the non-DepOnly packages analyzed.
func countTargets(prog *lint.Program) int {
	n := 0
	for _, pkg := range prog.Packages {
		if !pkg.DepOnly {
			n++
		}
	}
	return n
}

// expandPatterns turns package patterns into a sorted, deduplicated list
// of directories containing Go files.
func expandPatterns(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "...":
			pat = "./..."
			fallthrough
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Clean(strings.TrimSuffix(pat, "/..."))
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || name == "vendor" ||
					(strings.HasPrefix(name, ".") && name != ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				add(path)
				return nil
			})
			if err != nil {
				return nil, err
			}
		default:
			info, err := os.Stat(pat)
			if err != nil {
				return nil, err
			}
			if !info.IsDir() {
				return nil, fmt.Errorf("%s is not a directory", pat)
			}
			add(pat)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// findModule locates the enclosing go.mod and returns its directory and
// module path.
func findModule(start string) (root, path string, err error) {
	dir, err := filepath.Abs(start)
	if err != nil {
		return "", "", err
	}
	for {
		gomod := filepath.Join(dir, "go.mod")
		if f, err := os.Open(gomod); err == nil {
			defer f.Close()
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s: no module line", gomod)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", start)
		}
		dir = parent
	}
}

// importPath maps a directory to its import path within the module, so
// cross-package indexes match the import specs in source files.
func importPath(modRoot, modPath, dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(modRoot, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return modPath, nil
	}
	return modPath + "/" + filepath.ToSlash(rel), nil
}
