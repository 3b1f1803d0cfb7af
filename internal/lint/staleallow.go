package lint

import "go/token"

// StaleAllow flags //3golvet:allow directives that suppressed nothing in
// this run. A stale directive is worse than noise: it documents an
// invariant violation that no longer exists, and it will silently mask
// the next real finding that lands on its line. This is an After pass —
// it needs every per-file analyzer to have finished marking the
// directives it consumed.
//
// Entries naming staleallow itself are exempt (a directive cannot prove
// its own liveness), as are entries naming analyzers that did not run in
// this invocation — a partial run must not declare everyone else's
// directives stale.
var StaleAllow = &Analyzer{
	Name:  "staleallow",
	Doc:   "flags //3golvet:allow directives that no longer suppress anything",
	After: runStaleAllow,
}

func runStaleAllow(p *Program, report func(f *File, pos token.Pos, format string, args ...any)) {
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			for _, entries := range f.allow {
				for _, e := range entries {
					if e.used || e.name == "staleallow" || !p.ran[e.name] {
						continue
					}
					report(f, e.pos,
						"stale //3golvet:allow %s: no %s finding is suppressed here — remove the directive",
						e.name, e.name)
				}
			}
		}
	}
}
