package stats

import (
	"fmt"
	"math"
)

// Sketch is a mergeable empirical-CDF sketch: a fixed-width-bin count
// vector over [Lo, Hi) plus exact first-moment bookkeeping. Unlike ECDF
// it never stores the sample, so city-scale fleet shards can each fill
// one and merge-reduce them in O(bins); unlike Histogram its counts are
// int64 and its Merge is exact, so the merged sketch is bit-identical no
// matter how the sample was partitioned — the property the fleet
// engine's determinism-across-workers guarantee rests on.
//
// Observations outside [Lo, Hi) clamp into the first/last bin (no
// observation is lost); Min/Max/Sum track the exact values.
type Sketch struct {
	Lo, Hi float64
	Counts []int64
	N      int64
	Sum    float64
	Min    float64
	Max    float64
}

// NewSketch creates a sketch with the given number of equal-width bins
// over [lo, hi). It panics if bins ≤ 0 or hi ≤ lo, which indicates
// programmer error in experiment setup.
func NewSketch(lo, hi float64, bins int) *Sketch {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid sketch [%v,%v) bins=%d", lo, hi, bins))
	}
	return &Sketch{
		Lo:     lo,
		Hi:     hi,
		Counts: make([]int64, bins),
		Min:    math.Inf(1),
		Max:    math.Inf(-1),
	}
}

// Add records one observation.
func (s *Sketch) Add(x float64) { s.AddN(x, 1) }

// AddN records n observations of x: n calls of Add(x) in one bin
// update, their sum taken as x·n.
func (s *Sketch) AddN(x float64, n int64) {
	i := int((x - s.Lo) / (s.Hi - s.Lo) * float64(len(s.Counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(s.Counts) {
		i = len(s.Counts) - 1
	}
	s.Counts[i] += n
	s.N += n
	s.Sum += x * float64(n)
	if x < s.Min {
		s.Min = x
	}
	if x > s.Max {
		s.Max = x
	}
}

// Merge folds o into s. Both sketches must share [Lo, Hi) and bin count;
// mismatched configurations panic — merging incompatible sketches is a
// programmer error, not a data condition.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil {
		return
	}
	if s.Lo != o.Lo || s.Hi != o.Hi || len(s.Counts) != len(o.Counts) {
		panic(fmt.Sprintf("stats: merging incompatible sketches [%v,%v)×%d and [%v,%v)×%d",
			s.Lo, s.Hi, len(s.Counts), o.Lo, o.Hi, len(o.Counts)))
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.N += o.N
	s.Sum += o.Sum
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Count reports the number of observations recorded.
func (s *Sketch) Count() int64 { return s.N }

// Mean returns the exact sample mean, or 0 for an empty sketch.
func (s *Sketch) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// binWidth returns the width of one bin.
func (s *Sketch) binWidth() float64 {
	return (s.Hi - s.Lo) / float64(len(s.Counts))
}

// At returns the approximate P(X ≤ x), interpolating uniformly inside
// the bin containing x. It returns 0 for an empty sketch.
func (s *Sketch) At(x float64) float64 {
	if s.N == 0 {
		return 0
	}
	if x < s.Lo {
		return 0
	}
	width := s.binWidth()
	pos := (x - s.Lo) / width
	bin := int(pos)
	if bin >= len(s.Counts) {
		return 1
	}
	var cum int64
	for i := 0; i < bin; i++ {
		cum += s.Counts[i]
	}
	frac := pos - float64(bin)
	return (float64(cum) + frac*float64(s.Counts[bin])) / float64(s.N)
}

// Quantile returns the approximate q-quantile (clamping q into [0,1]),
// interpolating uniformly inside the selected bin and clamping the
// result into the exact observed [Min, Max].
func (s *Sketch) Quantile(q float64) float64 {
	if s.N == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	target := q * float64(s.N)
	width := s.binWidth()
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			frac := (target - float64(cum)) / float64(c)
			x := s.Lo + (float64(i)+frac)*width
			if x < s.Min {
				x = s.Min
			}
			if x > s.Max {
				x = s.Max
			}
			return x
		}
		cum += c
	}
	return s.Max
}
