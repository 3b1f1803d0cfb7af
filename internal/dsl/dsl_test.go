package dsl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"threegol/internal/stats"
)

func TestSyncRatesAnchors(t *testing.T) {
	// Short ADSL2+ loop approaches the technology maximum.
	short := Line{Technology: ADSL2Plus, LoopMetres: 100}
	d, u := short.SyncRates()
	if d < 20e6 || d > 24e6 {
		t.Errorf("100m ADSL2+ down = %.1f Mbps, want ≈22-24", d/1e6)
	}
	if u < 1.2e6 || u > 1.4e6 {
		t.Errorf("100m ADSL2+ up = %.2f Mbps, want ≈1.3", u/1e6)
	}
	// A 2 km ADSL2+ loop lands in single-digit Mbps (rate-reach tables).
	mid := Line{Technology: ADSL2Plus, LoopMetres: 2000}
	d, _ = mid.SyncRates()
	if d < 3e6 || d > 9e6 {
		t.Errorf("2km ADSL2+ down = %.1f Mbps, want 3-9", d/1e6)
	}
	// Beyond reach: no service.
	far := Line{Technology: ADSL1, LoopMetres: 6000}
	d, u = far.SyncRates()
	if d != 0 || u != 0 {
		t.Errorf("6km ADSL = %v/%v, want no sync", d, u)
	}
	// Zero-length loop gives exactly the maximum.
	zero := Line{Technology: ADSL1}
	d, u = zero.SyncRates()
	if d != 8e6 || u != 0.8e6 {
		t.Errorf("0m ADSL = %v/%v, want max rates", d, u)
	}
}

func TestRatesDecreaseWithDistance(t *testing.T) {
	for _, tech := range []Technology{ADSL1, ADSL2Plus} {
		prevD, prevU := math.Inf(1), math.Inf(1)
		for m := 0.0; m <= 5000; m += 250 {
			d, u := (Line{Technology: tech, LoopMetres: m}).SyncRates()
			if d > prevD || u > prevU {
				t.Fatalf("%v: rates not monotone at %vm", tech, m)
			}
			prevD, prevU = d, u
		}
	}
}

func TestNoiseMarginCostsRate(t *testing.T) {
	clean := Line{Technology: ADSL2Plus, LoopMetres: 1000}
	noisy := Line{Technology: ADSL2Plus, LoopMetres: 1000, NoiseMarginDB: 12}
	dc, _ := clean.SyncRates()
	dn, _ := noisy.SyncRates()
	if dn >= dc {
		t.Errorf("noisy line (%.1f) not slower than clean (%.1f)", dn/1e6, dc/1e6)
	}
}

func TestAsymmetryNearPaperValue(t *testing.T) {
	// The paper cites ~1/10 up/down asymmetry for typical ADSL; the
	// asymmetry grows with loop length (downlink decays faster).
	d, u := Line{Technology: ADSL1, LoopMetres: 1500, NoiseMarginDB: 6}.SyncRates()
	if a := d / u; a < 3 || a > 12 {
		t.Errorf("asymmetry = %.1f, want single-digit ratio near 10", a)
	}
}

func TestPopulationSample(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lines := Population{Technology: ADSL2Plus, MeanLoopMetres: 1200}.Sample(5000, rng)
	if len(lines) != 5000 {
		t.Fatalf("sampled %d lines", len(lines))
	}
	downs, ups := make([]float64, len(lines)), make([]float64, len(lines))
	for i, l := range lines {
		downs[i], ups[i] = l.SyncRates()
	}
	s := stats.Summarize(downs)
	// Everyone syncs; the mean lands in the broadband mainstream (the
	// paper cites Netalyzr's 6.7 Mbps average for generic ADSL).
	if s.Min <= 0 {
		t.Errorf("some lines failed to sync (min %.2f)", s.Min)
	}
	if s.Mean < 3e6 || s.Mean > 15e6 {
		t.Errorf("mean down = %.1f Mbps, want broadband mainstream", s.Mean/1e6)
	}
	if stats.Mean(ups) >= s.Mean {
		t.Error("uplink mean should sit far below downlink mean")
	}
}

func TestRuralSpeedupExceedsUrban(t *testing.T) {
	// The paper: "rural areas seem to experience greater speedup but
	// urban areas also have non-negligible benefits." A line's 3GOL
	// speedup is (dsl+3g)/dsl per direction.
	g3d, g3u := 4e6, 2.5e6
	speedup := func(l Line) (down, up float64) {
		d, u := l.SyncRates()
		return (d + g3d) / d, (u + g3u) / u
	}
	ud, uu := speedup(Line{Technology: ADSL2Plus, LoopMetres: 500, NoiseMarginDB: 6})
	rd, ru := speedup(Line{Technology: ADSL1, LoopMetres: 3500, NoiseMarginDB: 6})
	if rd <= ud || ru <= uu {
		t.Errorf("rural speedups (%.1f/%.1f) not above urban (%.1f/%.1f)", rd, ru, ud, uu)
	}
	if ud <= 1 || uu <= 1 {
		t.Errorf("urban speedups (%.2f/%.2f) should still exceed 1", ud, uu)
	}
	// Uplink speedups dominate downlink ones (ADSL asymmetry).
	if uu <= ud || ru <= rd {
		t.Error("uplink speedup should exceed downlink speedup")
	}
}

func TestTechnologyString(t *testing.T) {
	if ADSL1.String() != "ADSL" || ADSL2Plus.String() != "ADSL2+" {
		t.Error("Technology.String mismatch")
	}
}

// Property: sync rates are always within [0, technology max] and the
// line always reports down ≥ up.
func TestSyncRateBoundsProperty(t *testing.T) {
	f := func(metresRaw uint16, marginRaw uint8, techRaw bool) bool {
		tech := ADSL1
		if techRaw {
			tech = ADSL2Plus
		}
		l := Line{
			Technology:    tech,
			LoopMetres:    float64(metresRaw % 8000),
			NoiseMarginDB: float64(marginRaw % 16),
		}
		d, u := l.SyncRates()
		maxD, maxU := tech.maxRates()
		return d >= 0 && u >= 0 && d <= maxD && u <= maxU && d >= u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
