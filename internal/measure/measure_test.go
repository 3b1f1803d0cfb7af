package measure

import (
	"math"
	"testing"

	"threegol/internal/cellular"
)

func loc(name string) cellular.LocationPreset {
	p, ok := cellular.FindLocation(cellular.MeasurementLocations, name)
	if !ok {
		panic("unknown location " + name)
	}
	return p
}

func TestFig3UplinkPlateausDownlinkScales(t *testing.T) {
	pts := Fig3(loc("loc1"), 10, 4, 42)
	if len(pts) != 10 {
		t.Fatalf("points = %d, want 10", len(pts))
	}
	// Uplink plateaus near the HSUPA cell capacity (≈5 Mbps effective).
	ul10 := pts[9].UpMbps
	if ul10 > 6.2 {
		t.Errorf("uplink at 10 devices = %.2f Mbps, want a plateau ≲6", ul10)
	}
	ul5 := pts[4].UpMbps
	if math.Abs(ul10-ul5) > 1.2 {
		t.Errorf("uplink grew from %.2f (5 dev) to %.2f (10 dev); want plateau", ul5, ul10)
	}
	// Downlink keeps scaling well past the uplink plateau.
	dl10 := pts[9].DownMbps
	if dl10 < 10 {
		t.Errorf("downlink at 10 devices = %.2f Mbps, want ≳10 (paper: up to 14)", dl10)
	}
	// Two devices aggregate around the paper's 4.8 Mbps median.
	if pts[1].DownMbps < 2.5 || pts[1].DownMbps > 6.5 {
		t.Errorf("2-device downlink = %.2f, want ≈4.8", pts[1].DownMbps)
	}
	// Monotone non-decreasing within noise.
	for i := 1; i < len(pts); i++ {
		if pts[i].DownMbps < pts[i-1].DownMbps*0.8 {
			t.Errorf("downlink dropped sharply at n=%d: %.2f → %.2f",
				pts[i].Devices, pts[i-1].DownMbps, pts[i].DownMbps)
		}
	}
}

func TestFig3BalancedLocationExceedsSingleCellUplink(t *testing.T) {
	// Loc3 (dense deployment) spreads devices and can exceed one cell's
	// HSUPA capacity — the paper's stand-out observation.
	pts := Fig3(loc("loc3"), 10, 4, 42)
	ul10 := pts[9].UpMbps
	if ul10 < 3.0 {
		t.Errorf("loc3 uplink at 10 devices = %.2f; multi-sector spreading should lift it", ul10)
	}
	// More than one serving cell: aggregate uplink above a single
	// congested cell's free capacity.
	single := Fig3(loc("loc2"), 10, 4, 42)
	if ul10 <= single[9].UpMbps {
		t.Errorf("balanced loc3 uplink %.2f not above single-cell loc2 %.2f",
			ul10, single[9].UpMbps)
	}
}

func TestTable2MatchesPaperShape(t *testing.T) {
	rows := Table2(cellular.MeasurementLocations, 4, 42)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		// Within 2× of the paper's measured aggregates (shape, not
		// absolutes).
		if r.PaperDown > 0 {
			ratio := r.ThreeGDown / r.PaperDown
			if ratio < 0.5 || ratio > 2 {
				t.Errorf("%s: 3G downlink %.2f vs paper %.2f (×%.2f)",
					r.Location, r.ThreeGDown, r.PaperDown, ratio)
			}
		}
		if r.PaperUp > 0 {
			ratio := r.ThreeGUp / r.PaperUp
			if ratio < 0.5 || ratio > 2 {
				t.Errorf("%s: 3G uplink %.2f vs paper %.2f (×%.2f)",
					r.Location, r.ThreeGUp, r.PaperUp, ratio)
			}
		}
		// Uplink speedups dominate downlink speedups (ADSL asymmetry).
		if r.SpeedupUp <= r.SpeedupDown {
			t.Errorf("%s: uplink speedup %.2f not above downlink %.2f",
				r.Location, r.SpeedupUp, r.SpeedupDown)
		}
	}
	// The night-time residential site beats the rush-hour office site.
	var loc1, loc2 Table2Row
	for _, r := range rows {
		switch r.Location {
		case "loc1":
			loc1 = r
		case "loc2":
			loc2 = r
		}
	}
	if loc1.ThreeGDown <= loc2.ThreeGDown {
		t.Errorf("off-peak loc1 (%.2f) should out-measure peak-hour loc2 (%.2f)",
			loc1.ThreeGDown, loc2.ThreeGDown)
	}
	// Even the fibre-speed location (loc6) sees >1 speedup ("even at
	// overloaded locations ... possible to augment").
	for _, r := range rows {
		if r.SpeedupDown <= 1 || r.SpeedupUp <= 1 {
			t.Errorf("%s: speedups %.2f/%.2f must exceed 1", r.Location, r.SpeedupDown, r.SpeedupUp)
		}
	}
}

func TestCampaignProducesFullCorpus(t *testing.T) {
	samples := Campaign(loc("loc4"), 2, []int{3, 1}, 7)
	// 2 days × 24 hours × (3+1 down + 3+1 up) = 2×24×8 = 384 samples.
	if len(samples) != 384 {
		t.Fatalf("samples = %d, want 384", len(samples))
	}
	for _, s := range samples {
		if s.Mbps <= 0 {
			t.Fatalf("non-positive throughput sample: %+v", s)
		}
		if s.Cluster != 1 && s.Cluster != 3 {
			t.Fatalf("unexpected cluster %d", s.Cluster)
		}
	}
}

func TestFig4HourlyAggregation(t *testing.T) {
	samples := Campaign(loc("loc4"), 2, []int{3, 1}, 7)
	pts := Fig4(samples)
	seen := map[[2]int]bool{}
	for _, p := range pts {
		if p.MeanMbps <= 0 {
			t.Errorf("non-positive mean at %+v", p)
		}
		if math.Abs(p.TotalMbps-p.MeanMbps*float64(p.Group)) > 1e-9 {
			t.Errorf("total %.3f != mean×group %.3f", p.TotalMbps, p.MeanMbps*float64(p.Group))
		}
		seen[[2]int{p.Hour, p.Group}] = true
	}
	// All 24 hours represented for both groups.
	for h := 0; h < 24; h++ {
		if !seen[[2]int{h, 1}] || !seen[[2]int{h, 3}] {
			t.Errorf("hour %d missing from Fig4 aggregation", h)
		}
	}
}

func TestFig4DiurnalShape(t *testing.T) {
	// Per-device throughput at 2 am beats 2 pm on a loaded location
	// (paper: 0.77–1.42 Mbps downlink for 5 devices at 2 pm vs 2 am).
	samples := Campaign(loc("loc2"), 3, []int{5}, 11)
	pts := Fig4(samples)
	var night, noon float64
	for _, p := range pts {
		if p.Group != 5 || p.Dir != cellular.Downlink {
			continue
		}
		switch p.Hour {
		case 2:
			night = p.MeanMbps
		case 14:
			noon = p.MeanMbps
		}
	}
	if night == 0 || noon == 0 {
		t.Fatal("missing 2am/2pm points")
	}
	if night <= noon {
		t.Errorf("2am per-device %.2f not above 2pm %.2f", night, noon)
	}
}

func TestFig5CoversMultipleBaseStations(t *testing.T) {
	samples := Campaign(loc("loc4"), 4, []int{1}, 13)
	violins := Fig5(samples, 10)
	bsSet := map[string]bool{}
	for _, v := range violins {
		if v.Violin.Summary.N == 0 {
			t.Errorf("empty violin for %s/%s", v.Location, v.BS)
		}
		bsSet[v.BS] = true
	}
	if len(bsSet) < 2 {
		t.Errorf("violins cover %d base stations, want ≥2 (day-scale re-association)", len(bsSet))
	}
}

func TestTable3StatisticsShape(t *testing.T) {
	var samples []Sample
	for _, l := range []string{"loc1", "loc2", "loc4", "loc5"} {
		samples = append(samples, Campaign(loc(l), 2, []int{5, 3, 1}, 17)...)
	}
	rows := Table3(samples)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (clusters 1/3/5)", len(rows))
	}
	if rows[0].Cluster != 1 || rows[1].Cluster != 3 || rows[2].Cluster != 5 {
		t.Fatalf("cluster order = %v", rows)
	}
	// Per-device throughput decreases with cluster size (paper's Table 3).
	if !(rows[0].DownMean > rows[1].DownMean && rows[1].DownMean > rows[2].DownMean) {
		t.Errorf("downlink means not decreasing: %.2f %.2f %.2f",
			rows[0].DownMean, rows[1].DownMean, rows[2].DownMean)
	}
	if !(rows[0].UpMean > rows[2].UpMean) {
		t.Errorf("uplink means not decreasing: %.2f vs %.2f", rows[0].UpMean, rows[2].UpMean)
	}
	// Single-device means in the paper's ballpark (dl 1.61, ul 1.09).
	if rows[0].DownMean < 0.8 || rows[0].DownMean > 2.6 {
		t.Errorf("single-device downlink mean %.2f, want ≈1.6", rows[0].DownMean)
	}
	if rows[0].UpMean < 0.5 || rows[0].UpMean > 1.8 {
		t.Errorf("single-device uplink mean %.2f, want ≈1.1", rows[0].UpMean)
	}
	// Maxima below the per-device technology ceilings.
	for _, r := range rows {
		if r.DownMax > 3.5 {
			t.Errorf("cluster %d: downlink max %.2f exceeds radio ceiling", r.Cluster, r.DownMax)
		}
		if r.UpMax > 2.6 {
			t.Errorf("cluster %d: uplink max %.2f exceeds radio ceiling", r.Cluster, r.UpMax)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := Fig3(loc("loc1"), 3, 2, 5)
	b := Fig3(loc("loc1"), 3, 2, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Fig3 not deterministic for equal seeds")
		}
	}
}

// A probe round ends at its last completion, not at whatever the
// cellular model left on the clock: the background-load refresh tick a
// transfer arms fires a refresh interval after the round began, long
// after a 2 MB probe is in.
func TestRoundEndsAtLastCompletion(t *testing.T) {
	site := cellular.BuildSite(loc("loc1"), 42)
	devs := site.AttachDevices(3)
	t0 := site.Sim.Clock().Now()
	samples := round(site, devs, cellular.Downlink, len(devs))
	var slowest float64
	for _, s := range samples {
		slowest = math.Max(slowest, ProbeBytes*8/(s.Mbps*1e6))
	}
	if got := site.Sim.Clock().Now() - t0; math.Abs(got-slowest) > 1e-6*slowest {
		t.Errorf("round returned %.3f s after it began, its slowest probe took %.3f s", got, slowest)
	}
}
