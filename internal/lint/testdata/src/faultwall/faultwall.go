// Fixture: the fault-injection package's determinism discipline. The
// package clause says fault, which is on the SimPackages list: plans are
// compiled on a virtual float64-seconds timeline and schedules must draw
// from per-target seeded streams, so wall-clock reads and global
// math/rand draws are both banned. A per-target seeded stream
// passes; "jittering" a schedule from the shared source does not.
package fault

import (
	"math/rand"
	"time"
)

// compileOK is the sanctioned shape: a per-target stream derived from a
// mixed seed drives every draw.
func compileOK(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// badJitter leaks shared-source nondeterminism into the fault plan.
func badJitter(gap float64) float64 {
	return gap * rand.Float64()
}

// badStamp: fault plans live on a virtual timeline; no wall clock.
func badStamp() time.Time {
	return time.Now()
}

// badStall: injected clocks sleep, the package itself never does.
func badStall() {
	time.Sleep(time.Second)
}
