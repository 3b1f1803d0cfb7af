// Package dsl models ADSL/ADSL2+ access lines: the sync-rate-versus-loop
// length relationship that makes ADSL "often constrained by the distance
// between the customers and the telephone exchange" (§1) — the very
// bottleneck 3GOL compensates for. It also synthesises realistic rate
// populations for trace-driven analyses and explains the paper's
// observation that rural areas (long loops) see the largest onloading
// speedups.
package dsl

import (
	"fmt"
	"math"
	"math/rand"
)

// Technology selects the DSL flavour of a line.
type Technology int

// Supported technologies.
const (
	// ADSL1 is ITU G.992.1: up to ≈8 Mbps down / 0.8 Mbps up.
	ADSL1 Technology = iota
	// ADSL2Plus is ITU G.992.5: up to ≈24 Mbps down / 1.4 Mbps up.
	ADSL2Plus
)

// String implements fmt.Stringer.
func (t Technology) String() string {
	switch t {
	case ADSL1:
		return "ADSL"
	case ADSL2Plus:
		return "ADSL2+"
	default:
		return fmt.Sprintf("Technology(%d)", int(t))
	}
}

// maxRates returns the technology's best-case sync rates in bits/s.
func (t Technology) maxRates() (down, up float64) {
	switch t {
	case ADSL2Plus:
		return 24e6, 1.4e6
	default:
		return 8e6, 0.8e6
	}
}

// reach returns the loop length (metres) at which the downlink has
// decayed to roughly a tenth of its maximum — the practical service
// limit of the technology.
func (t Technology) reach() float64 {
	switch t {
	case ADSL2Plus:
		return 3500 // higher frequencies attenuate faster
	default:
		return 5000
	}
}

// Line is one subscriber loop.
type Line struct {
	Technology Technology
	// LoopMetres is the twisted-pair distance to the DSLAM/exchange.
	LoopMetres float64
	// NoiseMarginDB degrades the effective attenuation (cross-talk,
	// in-home wiring); 0 is a clean line, 6–12 dB is typical.
	NoiseMarginDB float64
}

// SyncRates returns the line's downlink and uplink sync rates in bits/s.
//
// The model is the standard exponential rate-reach curve: capacity decays
// with loop attenuation, which grows linearly with distance; noise margin
// adds equivalent distance. Anchors: a 300 m ADSL2+ loop syncs near
// 24 Mbps, a 2 km loop near 8 Mbps, and service dies at the technology
// reach — matching published rate-reach tables to within the spread real
// plants exhibit.
func (l Line) SyncRates() (down, up float64) {
	maxDown, maxUp := l.Technology.maxRates()
	reach := l.Technology.reach()
	// Equivalent distance including the noise margin (≈150 m per dB).
	d := l.LoopMetres + l.NoiseMarginDB*150
	if d <= 0 {
		return maxDown, maxUp
	}
	if d >= reach {
		return 0, 0
	}
	// Exponential decay calibrated so rate(reach) ≈ 10% of max. Uplink
	// uses lower frequencies and decays more slowly.
	kDown := math.Log(10) / reach
	kUp := kDown * 0.55
	down = maxDown * math.Exp(-kDown*d)
	up = maxUp * math.Exp(-kUp*d)
	return down, up
}

// Population synthesises subscriber lines with realistic loop-length
// diversity.
type Population struct {
	// Technology of the plant; ADSL2Plus for modern urban exchanges.
	Technology Technology
	// MeanLoopMetres is the average loop length; urban exchanges are
	// ≈1–1.5 km, rural ones several km. 0 selects 1500.
	MeanLoopMetres float64
	// NoiseMarginDB applies to every line; 0 selects 6.
	NoiseMarginDB float64
}

// Sample draws n lines with exponentially distributed loop lengths
// (the canonical subscriber-distance model), clipped to the technology
// reach so every line syncs.
func (p Population) Sample(n int, rng *rand.Rand) []Line {
	lines := make([]Line, n)
	for i := range lines {
		lines[i] = p.SampleOne(rng)
	}
	return lines
}

// SampleOne draws a single line with Sample's exact per-line RNG stream
// but no slice allocation — the fleet engine's per-home generator calls
// it once per household inside an allocation-free loop.
func (p Population) SampleOne(rng *rand.Rand) Line {
	mean := p.MeanLoopMetres
	if mean <= 0 {
		mean = 1500
	}
	margin := p.NoiseMarginDB
	if margin == 0 {
		margin = 6
	}
	reach := p.Technology.reach() - margin*150 - 50
	d := rng.ExpFloat64() * mean
	if d > reach {
		d = reach * (0.8 + 0.2*rng.Float64())
	}
	return Line{
		Technology:    p.Technology,
		LoopMetres:    d,
		NoiseMarginDB: margin,
	}
}
