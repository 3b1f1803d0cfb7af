package permitplane

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// UtilTable is a concurrent cellID → utilisation map, fed from an
// operator's monitoring export ("cellID utilisation" lines). It is the
// default Utilization source of cmd/3golpermitd.
type UtilTable struct {
	mu          sync.RWMutex
	util        map[string]float64
	fallback    float64
	denyUnknown bool
}

// NewUtilTable returns an empty table. fallback is the utilisation
// assumed for cells absent from the feed; denyUnknown overrides it to
// fail closed — unknown cells report utilisation 1.0, above every
// acceptance threshold, so a silent feed gap can never turn into an
// open-ended grant-everything policy.
func NewUtilTable(fallback float64, denyUnknown bool) *UtilTable {
	return &UtilTable{util: make(map[string]float64), fallback: fallback, denyUnknown: denyUnknown}
}

// Get reports the cell's utilisation — the Backend.Utilization hook.
func (t *UtilTable) Get(cellID string) float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if u, ok := t.util[cellID]; ok {
		return u
	}
	if t.denyUnknown {
		return 1.0
	}
	return t.fallback
}

// Set records one cell's utilisation.
func (t *UtilTable) Set(cellID string, u float64) {
	t.mu.Lock()
	t.util[cellID] = u
	t.mu.Unlock()
}

// Len reports how many cells have feed data.
func (t *UtilTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.util)
}

// maxFeedLine bounds a feed line: one of this many bytes or more,
// newline aside, is malformed and skipped.
const maxFeedLine = 64 << 10

// ReadFeed consumes "cellID utilisation" lines from r into t until EOF
// or a read error. Malformed lines — not two fields, a utilisation that
// is not a finite number ≥ 0, or a line of maxFeedLine bytes or more —
// are skipped, counted and reported through logf (nil discards); the
// feed goes on. A read failure is returned — unlike the old silent
// stdin loop, the caller can tell a finished feed from a broken one, so
// updates never just stop without a trace in the log.
func ReadFeed(r io.Reader, t *UtilTable, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	br := bufio.NewReaderSize(r, maxFeedLine)
	malformed := 0
	skip := func(format string, args ...any) {
		malformed++
		if malformed <= 10 {
			logf(format, args...)
		}
	}
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			n := len(line)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				n += len(line)
			}
			skip("permitplane: malformed feed line of %d bytes (limit %d)", n, maxFeedLine)
		} else if fields := strings.Fields(string(line)); len(fields) > 0 {
			u, perr := strconv.ParseFloat(fields[len(fields)-1], 64)
			if len(fields) != 2 || perr != nil || u < 0 || math.IsNaN(u) || math.IsInf(u, 0) {
				skip("permitplane: malformed feed line %q", strings.TrimSuffix(string(line), "\n"))
			} else {
				t.Set(fields[0], u)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("permitplane: utilisation feed read failed: %w", err)
		}
	}
	if malformed > 0 {
		logf("permitplane: feed ended (%d malformed lines skipped)", malformed)
	}
	return nil
}
