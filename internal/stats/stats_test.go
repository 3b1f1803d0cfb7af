package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want Summary
	}{
		{"empty", nil, Summary{}},
		{"single", []float64{3}, Summary{N: 1, Mean: 3, Std: 0, Min: 3, Max: 3, Median: 3}},
		{"pair", []float64{1, 3}, Summary{N: 2, Mean: 2, Std: math.Sqrt2, Min: 1, Max: 3, Median: 2}},
		{"run", []float64{2, 4, 4, 4, 5, 5, 7, 9}, Summary{N: 8, Mean: 5, Std: math.Sqrt(32.0 / 7.0), Min: 2, Max: 9, Median: 4.5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Summarize(tt.xs)
			if got.N != tt.want.N || !close(got.Mean, tt.want.Mean) ||
				!close(got.Std, tt.want.Std) || got.Min != tt.want.Min ||
				got.Max != tt.want.Max || !close(got.Median, tt.want.Median) {
				t.Errorf("Summarize(%v) = %+v, want %+v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	tests := []struct {
		q, want float64
	}{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50},
		{0.1, 14}, {-0.5, 10}, {1.5, 50},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !close(got, tt.want) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(empty) = %v, want 0", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	tests := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); !close(got, tt.want) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if e.Len() != 4 {
		t.Errorf("Len = %d, want 4", e.Len())
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	pts := e.Points(2)
	if len(pts) != 2 {
		t.Fatalf("Points(2) len = %d, want 2", len(pts))
	}
	if pts[0].X != 1 || pts[1].X != 4 {
		t.Errorf("Points endpoints = %v, want x=1 and x=4", pts)
	}
	if pts[1].Y != 1 {
		t.Errorf("last point Y = %v, want 1", pts[1].Y)
	}
	if got := e.Points(100); len(got) != 4 {
		t.Errorf("Points(100) len = %d, want clamped to 4", len(got))
	}
	if NewECDF(nil).Points(3) != nil {
		t.Error("empty ECDF should yield nil points")
	}
}

// Property: an ECDF is monotone non-decreasing and bounded by [0,1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probe float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 || math.IsNaN(probe) || math.IsInf(probe, 0) {
			return true
		}
		e := NewECDF(xs)
		a, b := e.At(probe), e.At(probe+1)
		return a >= 0 && b <= 1 && a <= b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 9.9, 10, 100} {
		h.Add(x)
	}
	want := []int{3, 1, 0, 0, 3} // clamping puts -1 in bin0 and 10,100 in bin4
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bin %d = %d, want %d (all: %v)", i, c, want[i], h.Counts)
		}
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d, want 7", h.Total())
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	h := NewHistogram(0, 1, 13)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		h.Add(rng.Float64())
	}
	var integral float64
	width := 1.0 / 13
	for _, p := range h.Density() {
		integral += p.Y * width
	}
	if !close(integral, 1) {
		t.Errorf("density integral = %v, want 1", integral)
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram(1, 0, 5) did not panic")
		}
	}()
	NewHistogram(1, 0, 5)
}

func TestViolin(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	v := NewViolin(xs, 4)
	if v.Q2 != 4.5 {
		t.Errorf("Q2 = %v, want 4.5", v.Q2)
	}
	if v.Q1 >= v.Q2 || v.Q2 >= v.Q3 {
		t.Errorf("quartiles not ordered: %v %v %v", v.Q1, v.Q2, v.Q3)
	}
	if len(v.Density) != 4 {
		t.Errorf("density bins = %d, want 4", len(v.Density))
	}
	if z := NewViolin(nil, 4); z.Summary.N != 0 {
		t.Errorf("empty violin should be zero, got %+v", z)
	}
	// Degenerate single-valued sample must not panic.
	NewViolin([]float64{5, 5, 5}, 3)
}

func TestLogNormalFromMoments(t *testing.T) {
	d := LogNormalFromMoments(2.5, 0.74)
	if !close(d.Mean(), 2.5) {
		t.Errorf("Mean = %v, want 2.5", d.Mean())
	}
	if !close(d.Std(), 0.74) {
		t.Errorf("Std = %v, want 0.74", d.Std())
	}
	rng := rand.New(rand.NewSource(42))
	var xs []float64
	for i := 0; i < 20000; i++ {
		xs = append(xs, d.Sample(rng))
	}
	s := Summarize(xs)
	if math.Abs(s.Mean-2.5) > 0.05 {
		t.Errorf("sample mean = %v, want ≈2.5", s.Mean)
	}
	if math.Abs(s.Std-0.74) > 0.05 {
		t.Errorf("sample std = %v, want ≈0.74", s.Std)
	}
}

func TestLogNormalZeroSD(t *testing.T) {
	d := LogNormalFromMoments(3, 0)
	rng := rand.New(rand.NewSource(1))
	if got := d.Sample(rng); !close(got, 3) {
		t.Errorf("degenerate lognormal sample = %v, want 3", got)
	}
}

func TestLogNormalPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LogNormalFromMoments(-1, 1) did not panic")
		}
	}()
	LogNormalFromMoments(-1, 1)
}

func TestTruncNormalStaysInBounds(t *testing.T) {
	d := TruncNormal{Mean: 0, Std: 10, Lo: -1, Hi: 1}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		x := d.Sample(rng)
		if x < d.Lo || x > d.Hi {
			t.Fatalf("sample %v outside [%v,%v]", x, d.Lo, d.Hi)
		}
	}
}

func TestTruncNormalClampFallback(t *testing.T) {
	// Mean far outside the window: rejection will fail, clamp must engage.
	d := TruncNormal{Mean: 100, Std: 0.001, Lo: 0, Hi: 1}
	rng := rand.New(rand.NewSource(7))
	if got := d.Sample(rng); got != 1 {
		t.Errorf("clamped sample = %v, want 1 (Hi)", got)
	}
	d.Mean = -100
	if got := d.Sample(rng); got != 0 {
		t.Errorf("clamped sample = %v, want 0 (Lo)", got)
	}
}

func TestExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var xs []float64
	for i := 0; i < 20000; i++ {
		xs = append(xs, Exponential(rng, 5))
	}
	if m := Mean(xs); math.Abs(m-5) > 0.2 {
		t.Errorf("mean = %v, want ≈5", m)
	}
	if Exponential(rng, 0) != 0 {
		t.Error("Exponential(0) should be 0")
	}
}

// Property: quantiles are monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa, qb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func close(a, b float64) bool {
	return math.Abs(a-b) < 1e-9 || math.Abs(a-b) < 1e-6*math.Max(math.Abs(a), math.Abs(b))
}
