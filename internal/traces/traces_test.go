package traces

import (
	"math"
	"testing"

	"threegol/internal/stats"
)

func TestMNOMatchesFig10Anchors(t *testing.T) {
	users := GenerateMNO(MNOConfig{Users: 20000}, 1)
	cdf := stats.NewECDF(UsedFractions(users))
	if got := cdf.At(0.1); math.Abs(got-0.40) > 0.02 {
		t.Errorf("P(frac ≤ 0.1) = %v, want ≈0.40", got)
	}
	if got := cdf.At(0.5); math.Abs(got-0.75) > 0.02 {
		t.Errorf("P(frac ≤ 0.5) = %v, want ≈0.75", got)
	}
	if got := cdf.At(1.0); got != 1 {
		t.Errorf("P(frac ≤ 1) = %v, want 1", got)
	}
}

func TestMNOLeftoverVolumeOrderOfMagnitude(t *testing.T) {
	users := GenerateMNO(MNOConfig{Users: 20000}, 2)
	daily := MeanDailyLeftoverBytes(users) / MB
	// The paper's "≈20 MB per device per day" leftover.
	if daily < 10 || daily > 60 {
		t.Errorf("mean daily leftover = %.1f MB, want O(20 MB)", daily)
	}
}

func TestMNOUsageWithinCap(t *testing.T) {
	users := GenerateMNO(MNOConfig{Users: 500}, 3)
	for _, u := range users {
		if len(u.MonthlyUsage) != 18 {
			t.Fatalf("user %d has %d months, want 18", u.ID, len(u.MonthlyUsage))
		}
		for m, used := range u.MonthlyUsage {
			if used < 0 || used > u.CapBytes {
				t.Fatalf("user %d month %d usage %v outside [0, %v]", u.ID, m, used, u.CapBytes)
			}
		}
		for _, f := range u.FreeSeries() {
			if f < 0 {
				t.Fatal("negative free capacity")
			}
		}
	}
}

func TestMNODeterministic(t *testing.T) {
	a := GenerateMNO(MNOConfig{Users: 100}, 42)
	b := GenerateMNO(MNOConfig{Users: 100}, 42)
	for i := range a {
		if a[i].UsedFrac != b[i].UsedFrac || a[i].CapBytes != b[i].CapBytes {
			t.Fatal("generator not deterministic for equal seeds")
		}
	}
	c := GenerateMNO(MNOConfig{Users: 100}, 43)
	same := true
	for i := range a {
		if a[i].UsedFrac != c[i].UsedFrac {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical populations")
	}
}

func TestDSLAMMatchesPaperMarginals(t *testing.T) {
	tr := GenerateDSLAM(DSLAMConfig{Users: 18000}, 7)
	if tr.NumUsers != 18000 {
		t.Errorf("NumUsers = %d", tr.NumUsers)
	}
	viewerFrac := float64(tr.Viewers()) / float64(tr.NumUsers)
	if math.Abs(viewerFrac-0.68) > 0.02 {
		t.Errorf("viewer fraction = %v, want ≈0.68", viewerFrac)
	}
	// Videos per viewer: mean ≈14.12, median ≈6 (lognormal heavy tail).
	perUser := tr.SessionsByUser()
	counts := make([]float64, 0, len(perUser))
	for _, ss := range perUser {
		counts = append(counts, float64(len(ss)))
	}
	s := stats.Summarize(counts)
	if math.Abs(s.Mean-14.12) > 1.5 {
		t.Errorf("videos/viewer mean = %v, want ≈14.12", s.Mean)
	}
	if math.Abs(s.Median-6) > 1.5 {
		t.Errorf("videos/viewer median = %v, want ≈6", s.Median)
	}
	if s.Std < 15 || s.Std > 50 {
		t.Errorf("videos/viewer std = %v, want ≈30 (heavy tail)", s.Std)
	}
}

func TestDSLAMVideoSizes(t *testing.T) {
	tr := GenerateDSLAM(DSLAMConfig{Users: 4000}, 9)
	var sizes []float64
	for _, s := range tr.Sessions {
		if s.SizeBytes <= 0 {
			t.Fatal("non-positive video size")
		}
		sizes = append(sizes, s.SizeBytes)
	}
	mean := stats.Mean(sizes) / MB
	if math.Abs(mean-50) > 5 {
		t.Errorf("mean video size = %.1f MB, want ≈50", mean)
	}
}

func TestDSLAMSessionsSortedAndDiurnal(t *testing.T) {
	tr := GenerateDSLAM(DSLAMConfig{Users: 6000}, 11)
	for i := 1; i < len(tr.Sessions); i++ {
		if tr.Sessions[i].Time < tr.Sessions[i-1].Time {
			t.Fatal("sessions not time-sorted")
		}
	}
	for _, s := range tr.Sessions {
		if s.Time < 0 || s.Time >= 24*3600 {
			t.Fatalf("session time %v outside the day", s.Time)
		}
	}
	// Diurnal shape: evening bins busier than pre-dawn bins.
	var bins [24]float64 // bytes per hour
	for _, s := range tr.Sessions {
		bins[int(s.Time/3600)] += s.SizeBytes
	}
	night := bins[3] + bins[4] + bins[5]
	evening := bins[20] + bins[21] + bins[22]
	if evening <= 2*night {
		t.Errorf("evening volume %v not ≫ pre-dawn %v", evening, night)
	}
}

func TestDSLAMConfigOverrides(t *testing.T) {
	tr := GenerateDSLAM(DSLAMConfig{Users: 100, ViewerFrac: 1.0, MeanVideoBytes: 5 * MB, ADSLBits: 8e6}, 17)
	if tr.Viewers() != 100 {
		t.Errorf("viewers = %d, want all 100", tr.Viewers())
	}
	if tr.ADSLBits != 8e6 {
		t.Errorf("ADSLBits = %v", tr.ADSLBits)
	}
}
