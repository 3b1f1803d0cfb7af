// Package stats provides the descriptive statistics and random-variate
// machinery shared by every 3GOL experiment: summaries (mean, standard
// deviation, quantiles), empirical CDFs, histogram/density sketches used
// for violin-style plots, and deterministic samplers for the synthetic
// trace generators.
//
// All samplers take an explicit *rand.Rand so that experiments are
// reproducible bit-for-bit from a fixed seed.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. It returns a zero Summary when xs is
// empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	s.Median = Quantile(xs, 0.5)
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f med=%.3f max=%.3f",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.Max)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the sample standard deviation of xs (n-1 denominator), or 0
// when xs has fewer than two elements.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between closest ranks. xs need not be sorted. It returns 0
// for an empty sample and clamps q into [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ECDF is an empirical cumulative distribution function built from a
// sample. The zero value is not usable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input slice is copied.
func NewECDF(xs []float64) *ECDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}
}

// Len reports the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns P(X ≤ x), i.e. the fraction of the sample at or below x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile of the underlying sample.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return quantileSorted(e.sorted, q)
}

// Points returns up to n evenly spaced (x, P(X≤x)) pairs suitable for
// printing a CDF series. For n ≥ sample size it returns one point per
// observation.
func (e *ECDF) Points(n int) []Point {
	if len(e.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(e.sorted) {
		n = len(e.sorted)
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(e.sorted) - 1) / max(n-1, 1)
		pts = append(pts, Point{
			X: e.sorted[idx],
			Y: float64(idx+1) / float64(len(e.sorted)),
		})
	}
	return pts
}

// Point is a generic (x, y) pair used when emitting plot series.
type Point struct{ X, Y float64 }

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Values outside
// the range are clamped into the first/last bin so no observation is lost.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over
// [lo, hi). It panics if bins ≤ 0 or hi ≤ lo, which indicates programmer
// error in experiment setup.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) bins=%d", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.total++
}

// Total reports the number of observations recorded.
func (h *Histogram) Total() int { return h.total }

// Density returns the normalised bin densities (sum of density×binwidth
// equals 1) together with bin centres — the raw material of a violin plot.
func (h *Histogram) Density() []Point {
	pts := make([]Point, len(h.Counts))
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		centre := h.Lo + (float64(i)+0.5)*width
		var d float64
		if h.total > 0 {
			d = float64(c) / (float64(h.total) * width)
		}
		pts[i] = Point{X: centre, Y: d}
	}
	return pts
}

// Violin summarises a sample the way the paper's violin plots do: the
// density sketch plus the quartiles.
type Violin struct {
	Density    []Point
	Q1, Q2, Q3 float64
	Summary    Summary
}

// NewViolin builds a Violin over the sample with the given number of
// density bins. An empty sample yields a zero Violin.
func NewViolin(xs []float64, bins int) Violin {
	if len(xs) == 0 {
		return Violin{}
	}
	s := Summarize(xs)
	lo, hi := s.Min, s.Max
	if hi <= lo {
		hi = lo + 1 // degenerate sample: single value
	}
	h := NewHistogram(lo, hi, bins)
	for _, x := range xs {
		h.Add(x)
	}
	return Violin{
		Density: h.Density(),
		Q1:      Quantile(xs, 0.25),
		Q2:      Quantile(xs, 0.5),
		Q3:      Quantile(xs, 0.75),
		Summary: s,
	}
}
