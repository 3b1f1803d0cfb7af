// Package lint is a stdlib-only static-analysis framework plus the
// repo-specific analyzers behind cmd/3golvet. It is built on go/parser,
// go/ast and go/types — no external modules — so it loads and runs
// offline in any environment that can build the repo. Type information
// comes from go/types with imports resolved from already-loaded
// packages, compiler export data, or the go/importer source importer
// (see TypeCheck); analyzers degrade gracefully where resolution fails.
//
// The analyzers enforce the determinism and concurrency invariants the
// trace-driven evaluation depends on:
//
//   - wallclock: no direct time.Now/time.Since/time.Sleep; simulation
//     packages must use internal/simclock or an injected clock.Clock.
//   - randsource: no global math/rand top-level functions; randomness is
//     injected as a *rand.Rand seeded from experiment config.
//   - locksafe: mu.Lock() in a function with multiple return paths must
//     be immediately followed by defer mu.Unlock().
//   - droppederr: calls whose error result is silently discarded as a
//     bare statement.
//   - lockio: a mutex held across network/file I/O or channel blocking
//     (type-resolved, with one-level call summaries so wrappers like
//     transfer.Download are caught).
//   - ctxprop: exported functions in the data-plane packages that
//     perform I/O must accept and thread a context.Context.
//   - maporder: map iteration feeding order-sensitive sinks (slice
//     appends, encoders, Merge calls) in simulation packages.
//   - goroleak: go statements with no join or cancellation path.
//   - staleallow: //3golvet:allow directives that suppress nothing.
//
// A finding at a legitimate call site is suppressed by the directive
//
//	//3golvet:allow <analyzer> [<analyzer>...]
//
// placed on the flagged line or the line immediately above it.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// AllowDirective is the comment prefix of a suppression, e.g.
// "//3golvet:allow wallclock".
const AllowDirective = "3golvet:allow"

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
}

// String formats the finding as "file:line: [analyzer] message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Position.Filename, d.Position.Line, d.Analyzer, d.Message)
}

// allowEntry is one analyzer name listed on one //3golvet:allow
// directive. used is set when a finding is suppressed through it, so
// staleallow can flag directives that no longer suppress anything.
type allowEntry struct {
	name string
	pos  token.Pos // position of the directive comment
	used bool
}

// File is one parsed, non-test source file.
type File struct {
	Path string
	AST  *ast.File
	Pkg  *Package

	allow map[int][]*allowEntry // directive line → entries allowed there
}

// Allowed reports whether a finding by the named analyzer at the given
// line is suppressed by an allow directive on that line or the one above,
// marking the directive as used.
func (f *File) Allowed(analyzer string, line int) bool {
	ok := false
	for _, l := range [2]int{line, line - 1} {
		for _, e := range f.allow[l] {
			if e.name == analyzer {
				e.used = true
				ok = true
			}
		}
	}
	return ok
}

// Package is one directory's worth of parsed files.
type Package struct {
	Name       string // package clause name
	ImportPath string
	Dir        string
	Files      []*File
	Prog       *Program
	// DepOnly marks a package loaded only to complete the dependency
	// closure (type checking, cross-package facts); its own diagnostics
	// are not reported.
	DepOnly bool
	// Types is the type-checked package (possibly partial); nil before
	// TypeCheck runs.
	Types *types.Package

	funcErr map[string]bool // package-level funcs whose last result is error
}

// Program is a set of loaded packages analyzed together. Cross-package
// facts (the dropped-error indexes, the I/O classification used by
// lockio/ctxprop/goroleak) are computed over the whole program.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
	// Info holds merged type information for every loaded package after
	// TypeCheck; nil when running parser-only.
	Info *types.Info
	// TypeErrors collects go/types errors (fixtures with deliberate
	// mistakes, unresolvable imports). Analysis continues regardless.
	TypeErrors []error

	byPath map[string]*Package
	// methodErr[name] is true when every method of that name declared
	// anywhere in the program has error as its last result (so a bare
	// x.name(...) statement provably drops an error regardless of x's
	// type, as far as the loaded program can tell).
	methodErr map[string]bool
	// ioFacts classifies declared functions by the blocking operations
	// their bodies perform; see ioclass.go.
	ioFacts map[*types.Func]ioFact
	// ran names the analyzers included in the current Run — staleallow
	// only judges directives for analyzers that actually executed.
	ran map[string]bool
}

// NewProgram returns an empty Program ready for LoadDir calls.
func NewProgram() *Program {
	return &Program{Fset: token.NewFileSet(), byPath: make(map[string]*Package)}
}

// Package returns the loaded package registered under importPath, or
// nil when it has not been loaded.
func (p *Program) Package(importPath string) *Package {
	return p.byPath[importPath]
}

// LoadDir parses the non-test .go files of one directory as a Package
// registered under importPath. It returns nil (and no error) when the
// directory contains no non-test Go files.
func (p *Program) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: dir, ImportPath: importPath, Prog: p}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		astf, err := parser.ParseFile(p.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkg.Name == "" {
			pkg.Name = astf.Name.Name
		}
		pkg.Files = append(pkg.Files, &File{
			Path:  path,
			AST:   astf,
			Pkg:   pkg,
			allow: parseAllows(p.Fset, astf),
		})
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	p.Packages = append(p.Packages, pkg)
	p.byPath[importPath] = pkg
	return pkg, nil
}

// parseAllows collects //3golvet:allow directives by line.
func parseAllows(fset *token.FileSet, astf *ast.File) map[int][]*allowEntry {
	m := make(map[int][]*allowEntry)
	for _, cg := range astf.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, AllowDirective) {
				continue
			}
			line := fset.Position(c.Pos()).Line
			for _, field := range strings.Fields(text[len(AllowDirective):]) {
				if !isAnalyzerName(field) {
					break // trailing prose ("— reason why") ends the list
				}
				m[line] = append(m[line], &allowEntry{name: field, pos: c.Pos()})
			}
		}
	}
	return m
}

func isAnalyzerName(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return false
		}
	}
	return len(s) > 0
}

// Reporter receives findings from an analyzer run.
type Reporter func(pos token.Pos, format string, args ...any)

// Analyzer is one named check. Run inspects a single file (with
// program-wide indexes available through File.Pkg.Prog). After, when
// non-nil, runs once per program after every per-file pass has finished —
// staleallow uses it to see which directives went unused.
type Analyzer struct {
	Name  string
	Doc   string
	Run   func(f *File, report Reporter)
	After func(p *Program, report func(f *File, pos token.Pos, format string, args ...any))
}

// Analyzers returns the default suite run by cmd/3golvet.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Wallclock, RandSource, LockSafe, DroppedErr,
		LockIO, CtxProp, MapOrder, GoroLeak, StaleAllow,
	}
}

// Run executes the analyzers over every loaded file — packages in
// parallel — and returns the surviving (non-suppressed) diagnostics of
// non-DepOnly packages sorted by file then line. Program-level After
// passes run once the per-file phase has fully drained.
func (p *Program) Run(analyzers []*Analyzer) []Diagnostic {
	p.buildIndexes()
	p.ran = make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		p.ran[a.Name] = true
	}
	perPkg := make([][]Diagnostic, len(p.Packages))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(p.Packages) {
		workers = len(p.Packages)
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				perPkg[idx] = p.runPackage(p.Packages[idx], analyzers)
			}
		}()
	}
	for i := range p.Packages {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	for _, a := range analyzers {
		if a.After == nil {
			continue
		}
		a := a
		a.After(p, func(f *File, pos token.Pos, format string, args ...any) {
			if f.Pkg.DepOnly {
				return
			}
			position := p.Fset.Position(pos)
			if f.Allowed(a.Name, position.Line) {
				return
			}
			diags = append(diags, Diagnostic{
				Position: position,
				Analyzer: a.Name,
				Message:  fmt.Sprintf(format, args...),
			})
		})
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// runPackage runs every per-file analyzer over one package. Suppression
// marking touches only this package's files, so packages are safe to
// analyze concurrently.
func (p *Program) runPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			f, a := f, a
			a.Run(f, func(pos token.Pos, format string, args ...any) {
				position := p.Fset.Position(pos)
				if f.Allowed(a.Name, position.Line) {
					return
				}
				if pkg.DepOnly {
					return
				}
				diags = append(diags, Diagnostic{
					Position: position,
					Analyzer: a.Name,
					Message:  fmt.Sprintf(format, args...),
				})
			})
		}
	}
	return diags
}

// buildIndexes computes the error-result indexes used by droppederr.
func (p *Program) buildIndexes() {
	p.methodErr = make(map[string]bool)
	seen := make(map[string]bool)
	for _, pkg := range p.Packages {
		pkg.funcErr = make(map[string]bool)
		for _, f := range pkg.Files {
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				returnsErr := lastResultIsError(fd.Type)
				if fd.Recv == nil {
					if returnsErr {
						pkg.funcErr[fd.Name.Name] = true
					}
					continue
				}
				name := fd.Name.Name
				if !seen[name] {
					seen[name] = true
					p.methodErr[name] = returnsErr
				} else {
					p.methodErr[name] = p.methodErr[name] && returnsErr
				}
			}
		}
	}
}

func lastResultIsError(ft *ast.FuncType) bool {
	if ft.Results == nil || len(ft.Results.List) == 0 {
		return false
	}
	last := ft.Results.List[len(ft.Results.List)-1]
	id, ok := last.Type.(*ast.Ident)
	return ok && id.Name == "error"
}

// importAlias returns the local name under which path is imported in the
// file ("" when not imported, or imported blank / with a dot).
func importAlias(astf *ast.File, path string) string {
	for _, spec := range astf.Imports {
		if strings.Trim(spec.Path.Value, `"`) != path {
			continue
		}
		if spec.Name == nil {
			// Default name: last path element.
			if i := strings.LastIndex(path, "/"); i >= 0 {
				return path[i+1:]
			}
			return path
		}
		if spec.Name.Name == "_" || spec.Name.Name == "." {
			return ""
		}
		return spec.Name.Name
	}
	return ""
}

// exprString renders a receiver/selector expression for messages and for
// matching a Lock receiver against its Unlock.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return "(" + exprString(x.X) + ")"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[…]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(…)"
	default:
		return "?"
	}
}

// inspectSameFunc walks root like ast.Inspect but does not descend into
// nested function literals, so statements are attributed to the function
// that lexically contains them.
func inspectSameFunc(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return true
		}
		return fn(n)
	})
}
