// Fixture: module-local imports that name no Go package — one directory
// that does not exist, one that holds no .go files. The loader must try
// each once and move on; go build, not 3golvet, reports them.
package missingdep

import (
	_ "threegol/internal/deletedpkg"
	_ "threegol/internal/lint/testdata"
)
