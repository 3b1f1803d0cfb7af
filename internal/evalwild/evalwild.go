// Package evalwild reproduces the paper's §5 "in the wild" prototype
// evaluation over the emulated substrate: the Fig. 6 scheduler shoot-out,
// the Fig. 7 pre-buffer gains, the Fig. 8 full-download reductions and
// the Fig. 9 upload comparison. Every experiment drives the *real*
// prototype components — HLS origin, device proxies, the HLS-aware
// client proxy and the multipath scheduler — over netem-shaped loopback
// TCP, accelerated by a time scale that preserves all ratios.
package evalwild

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"threegol/internal/cellular"
	"threegol/internal/core"
	"threegol/internal/hls"
	"threegol/internal/scheduler"
	"threegol/internal/stats"
	"threegol/internal/upload"
)

// Setup fixes global experiment parameters.
type Setup struct {
	// TimeScale accelerates the emulation; 0 selects 60.
	TimeScale float64
	// Seed drives every stochastic component.
	Seed int64
	// Reps is the per-configuration repetition count (the paper runs 30;
	// the default here is 3 to keep regeneration quick — raise it for
	// tighter error bars).
	Reps int
	// Variability is the HSPA rate-process relative std; 0 selects 0.25
	// (the wandering that defeats the MIN estimator).
	Variability float64
}

func (s Setup) withDefaults() Setup {
	if s.TimeScale <= 0 {
		s.TimeScale = 60
	}
	if s.Reps <= 0 {
		s.Reps = 3
	}
	if s.Variability <= 0 {
		s.Variability = 0.25
	}
	return s
}

// phoneConfigs derives phone rates for a location preset from its radio
// conditions (cap × mean fading), matching the cellular model.
func phoneConfigs(preset cellular.LocationPreset, n int, warm bool) []core.PhoneConfig {
	params := cellular.DefaultParams()
	dl, ul := cellular.RadioCaps(preset.SignalDBm)
	out := make([]core.PhoneConfig, n)
	for i := range out {
		out[i] = core.PhoneConfig{
			Name: fmt.Sprintf("ph%d", i+1),
			Down: dl * params.FadingMean,
			Up:   ul * params.FadingMean,
			Warm: warm,
		}
	}
	return out
}

// newHome builds the emulated home for a preset.
func newHome(preset cellular.LocationPreset, phones []core.PhoneConfig, s Setup) (*core.Home, error) {
	return core.NewHome(core.HomeConfig{
		DSLDown:   preset.DSLDown,
		DSLUp:     preset.DSLUp,
		TimeScale: s.TimeScale,
		Phones:    withVariability(phones, s.Variability),
		Seed:      s.Seed,
	})
}

func withVariability(phones []core.PhoneConfig, v float64) []core.PhoneConfig {
	out := append([]core.PhoneConfig(nil), phones...)
	for i := range out {
		out[i].Variability = v
	}
	return out
}

// Fig6Row is one bar of Fig. 6: mean full-download time of the 200 s HLS
// video for one (quality, scheme, #phones) cell.
type Fig6Row struct {
	Quality string
	Scheme  string // "ADSL", "3GOL_MIN", "3GOL_RR", "3GOL_GRD"
	Phones  int
	Mean    time.Duration // emulated
	Std     time.Duration
}

// fig6ADSL is the test line of the scheduler comparison: 2 Mbps down,
// 0.512 Mbps up. Its phones sit at -92 dBm, 1.26 Mbit/s each: a
// scheduler comparison needs unequal paths, and a phone near the line's
// rate makes RR's alternating deal near-ideal, so RR ties GRD and the
// figure compares nothing.
var fig6ADSL = cellular.LocationPreset{
	Name:    "lab",
	DSLDown: 2e6, DSLUp: 0.512e6,
	SignalDBm: -92,
}

// Fig6 runs the scheduler comparison: the bipbop video (200 s, Q1–Q4)
// downloaded over a 2 Mbps ADSL line alone and with 3GOL under the MIN,
// RR and GRD schedulers, using one and two phones.
func Fig6(s Setup) ([]Fig6Row, error) {
	s = s.withDefaults()
	video := hls.BipBop()
	origin := httptest.NewServer(hls.NewOrigin(video))
	defer origin.Close()

	schemes := []struct {
		name string
		algo scheduler.Algo
	}{
		{"3GOL_MIN", scheduler.MinTime},
		{"3GOL_RR", scheduler.RoundRobin},
		{"3GOL_GRD", scheduler.Greedy},
	}

	var rows []Fig6Row
	for _, nPhones := range []int{1, 2} {
		for _, q := range video.Qualities {
			// ADSL baseline (per phone count it is the same; report once
			// under phones=nPhones for table completeness).
			var base []float64
			if err := repeat(s.Reps, func(rep int) error {
				h, err := newHome(fig6ADSL, phoneConfigs(fig6ADSL, nPhones, true), seeded(s, rep))
				if err != nil {
					return err
				}
				defer h.Close()
				res, err := h.BaselineVoD(context.Background(), origin.URL, "/bipbop/master.m3u8", 1.0, q.Name)
				if err != nil {
					return err
				}
				base = append(base, res.Total.Seconds())
				return nil
			}); err != nil {
				return nil, err
			}
			rows = append(rows, fig6Row(q.Name, "ADSL", nPhones, base))

			for _, scheme := range schemes {
				var times []float64
				if err := repeat(s.Reps, func(rep int) error {
					h, err := newHome(fig6ADSL, phoneConfigs(fig6ADSL, nPhones, true), seeded(s, rep))
					if err != nil {
						return err
					}
					defer h.Close()
					phones := h.AdmissibleDevices(nPhones, 5*time.Second)
					res, err := h.BoostVoD(context.Background(), origin.URL, "/bipbop/master.m3u8", core.VoDOptions{
						Algo: scheme.algo, Phones: phones, PrebufferFrac: 1.0, Quality: q.Name,
					})
					if err != nil {
						return err
					}
					times = append(times, res.Total.Seconds())
					return nil
				}); err != nil {
					return nil, err
				}
				rows = append(rows, fig6Row(q.Name, scheme.name, nPhones, times))
			}
		}
	}
	return rows, nil
}

func fig6Row(quality, scheme string, phones int, secs []float64) Fig6Row {
	sum := stats.Summarize(secs)
	return Fig6Row{
		Quality: quality,
		Scheme:  scheme,
		Phones:  phones,
		Mean:    time.Duration(sum.Mean * float64(time.Second)),
		Std:     time.Duration(sum.Std * float64(time.Second)),
	}
}

func seeded(s Setup, rep int) Setup {
	s.Seed = s.Seed*131 + int64(rep)*17 + 7
	return s
}

func repeat(n int, fn func(int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// Fig7Row is one Fig. 7 point: the pre-buffer gain (baseline − boosted
// startup latency) for one configuration.
type Fig7Row struct {
	Location  string
	Quality   string
	Prebuffer float64 // fraction 0.2..1.0
	Phones    int
	Warm      bool // true = "H" start, false = idle "3G" start
	GainSec   float64
}

// Fig7 measures pre-buffer gains at the named eval locations across
// pre-buffer fractions, qualities, phone counts and RRC start modes.
func Fig7(s Setup, locations []string, prebufs []float64, qualities []string) ([]Fig7Row, error) {
	s = s.withDefaults()
	if len(locations) == 0 {
		locations = []string{"loc2", "loc4"}
	}
	if len(prebufs) == 0 {
		prebufs = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	}
	video := hls.BipBop()
	if len(qualities) == 0 {
		for _, q := range video.Qualities {
			qualities = append(qualities, q.Name)
		}
	}
	origin := httptest.NewServer(hls.NewOrigin(video))
	defer origin.Close()

	var rows []Fig7Row
	for _, locName := range locations {
		preset, ok := cellular.FindLocation(cellular.EvalLocations, locName)
		if !ok {
			return nil, fmt.Errorf("evalwild: unknown eval location %q", locName)
		}
		for _, nPhones := range []int{1, 2} {
			for _, warm := range []bool{false, true} {
				for _, q := range qualities {
					for _, pb := range prebufs {
						var gains []float64
						if err := repeat(s.Reps, func(rep int) error {
							g, err := prebufferGain(origin.URL, preset, nPhones, warm, q, pb, seeded(s, rep))
							if err != nil {
								return err
							}
							gains = append(gains, g)
							return nil
						}); err != nil {
							return nil, err
						}
						rows = append(rows, Fig7Row{
							Location: locName, Quality: q, Prebuffer: pb,
							Phones: nPhones, Warm: warm,
							GainSec: stats.Mean(gains),
						})
					}
				}
			}
		}
	}
	return rows, nil
}

func prebufferGain(origin string, preset cellular.LocationPreset, nPhones int, warm bool, quality string, prebuf float64, s Setup) (float64, error) {
	h, err := newHome(preset, phoneConfigs(preset, nPhones, false), s)
	if err != nil {
		return 0, err
	}
	defer h.Close()
	base, err := h.BaselineVoD(context.Background(), origin, "/bipbop/master.m3u8", prebuf, quality)
	if err != nil {
		return 0, err
	}
	phones := h.AdmissibleDevices(nPhones, 5*time.Second)
	if warm {
		for _, ph := range phones {
			ph.WarmUp()
		}
	}
	boost, err := h.BoostVoD(context.Background(), origin, "/bipbop/master.m3u8", core.VoDOptions{
		Algo: scheduler.Greedy, Phones: phones, PrebufferFrac: prebuf, Quality: quality,
	})
	if err != nil {
		return 0, err
	}
	return base.Prebuffer.Seconds() - boost.Prebuffer.Seconds(), nil
}

// Fig8Row is one Fig. 8 bar: percent reduction in full-video download
// time at a location, averaged over qualities.
type Fig8Row struct {
	Location     string
	Phones       int
	Warm         bool
	ReductionPct float64
}

// Fig8 measures full-download reductions at every eval location.
func Fig8(s Setup, qualities []string) ([]Fig8Row, error) {
	s = s.withDefaults()
	video := hls.BipBop()
	if len(qualities) == 0 {
		for _, q := range video.Qualities {
			qualities = append(qualities, q.Name)
		}
	}
	origin := httptest.NewServer(hls.NewOrigin(video))
	defer origin.Close()

	var rows []Fig8Row
	for _, preset := range cellular.EvalLocations {
		for _, nPhones := range []int{1, 2} {
			for _, warm := range []bool{false, true} {
				var reductions []float64
				for _, q := range qualities {
					if err := repeat(s.Reps, func(rep int) error {
						h, err := newHome(preset, phoneConfigs(preset, nPhones, false), seeded(s, rep))
						if err != nil {
							return err
						}
						defer h.Close()
						base, err := h.BaselineVoD(context.Background(), origin.URL, "/bipbop/master.m3u8", 1.0, q)
						if err != nil {
							return err
						}
						phones := h.AdmissibleDevices(nPhones, 5*time.Second)
						if warm {
							for _, ph := range phones {
								ph.WarmUp()
							}
						}
						boost, err := h.BoostVoD(context.Background(), origin.URL, "/bipbop/master.m3u8", core.VoDOptions{
							Algo: scheduler.Greedy, Phones: phones, PrebufferFrac: 1.0, Quality: q,
						})
						if err != nil {
							return err
						}
						reductions = append(reductions,
							100*(base.Total.Seconds()-boost.Total.Seconds())/base.Total.Seconds())
						return nil
					}); err != nil {
						return nil, err
					}
				}
				rows = append(rows, Fig8Row{
					Location: preset.Name, Phones: nPhones, Warm: warm,
					ReductionPct: stats.Mean(reductions),
				})
			}
		}
	}
	return rows, nil
}

// Fig9Row is one Fig. 9 bar: mean upload time of the 30-photo set.
type Fig9Row struct {
	Location string
	Phones   int // 0 = ADSL baseline
	Mean     time.Duration
}

// Fig9 measures the photo-upload transaction (30 photos, 2.5 MB mean) at
// every eval location with 0 (baseline), 1 and 2 phones. Each run
// uploads to a fresh upload.Server, the photo endpoint, which takes a
// photo in pieces.
func Fig9(s Setup, photosPerSet int) ([]Fig9Row, error) {
	s = s.withDefaults()
	if photosPerSet <= 0 {
		photosPerSet = 30
	}
	var current atomic.Pointer[upload.Server]
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	defer sink.Close()

	var rows []Fig9Row
	for _, preset := range cellular.EvalLocations {
		for _, nPhones := range []int{0, 1, 2} {
			var times []float64
			if err := repeat(s.Reps, func(rep int) error {
				ss := seeded(s, rep)
				photos := core.GeneratePhotos(photosPerSet, ss.Seed)
				cfgPhones := phoneConfigs(preset, max(nPhones, 1), false)[:nPhones]
				h, err := newHome(preset, cfgPhones, ss)
				if err != nil {
					return err
				}
				defer h.Close()
				current.Store(&upload.Server{})
				var res *core.UploadResult
				if nPhones == 0 {
					res, err = h.BaselineUpload(context.Background(), photos, sink.URL)
				} else {
					phones := h.AdmissibleDevices(nPhones, 5*time.Second)
					res, err = h.UploadPhotos(context.Background(), photos, core.UploadOptions{
						Algo: scheduler.Greedy, Phones: phones, TargetURL: sink.URL,
					})
				}
				if err != nil {
					return err
				}
				times = append(times, res.Elapsed.Seconds())
				return nil
			}); err != nil {
				return nil, err
			}
			rows = append(rows, Fig9Row{
				Location: preset.Name,
				Phones:   nPhones,
				Mean:     time.Duration(stats.Mean(times) * float64(time.Second)),
			})
		}
	}
	return rows, nil
}

// TechRow is one row of the 4G outlook comparison (§2.3): the same boost
// executed with HSPA-class and LTE-class devices.
type TechRow struct {
	Tech            string
	BaselineStartup time.Duration // ADSL-only pre-buffer latency
	BoostedStartup  time.Duration
	BoostedTotal    time.Duration
	PhoneDown       float64 // per-device downlink (bits/s)
	RRCPromotion    time.Duration
}

// LTEComparison runs the paper's §2.3 outlook: the powerboost at an eval
// location with 3G (HSPA) devices versus 4G (LTE) devices — higher radio
// rates and a near-instant RRC promotion shrink the boosting window.
func LTEComparison(s Setup, locName string) ([]TechRow, error) {
	s = s.withDefaults()
	preset, ok := cellular.FindLocation(cellular.EvalLocations, locName)
	if !ok {
		return nil, fmt.Errorf("evalwild: unknown eval location %q", locName)
	}
	video := hls.BipBop()
	origin := httptest.NewServer(hls.NewOrigin(video))
	defer origin.Close()

	params := cellular.DefaultParams()
	techs := []struct {
		name      string
		caps      func(float64) (float64, float64)
		promotion time.Duration
	}{
		{"3G (HSPA)", cellular.RadioCaps, 2 * time.Second},
		{"4G (LTE)", cellular.LTERadioCaps, 100 * time.Millisecond},
	}

	var rows []TechRow
	for _, tech := range techs {
		dl, ul := tech.caps(preset.SignalDBm)
		phones := make([]core.PhoneConfig, 2)
		for i := range phones {
			phones[i] = core.PhoneConfig{
				Name: fmt.Sprintf("ph%d", i+1),
				Down: dl * params.FadingMean,
				Up:   ul * params.FadingMean,
			}
		}
		var baseStart, boostStart, boostTotal []float64
		if err := repeat(s.Reps, func(rep int) error {
			ss := seeded(s, rep)
			h, err := core.NewHome(core.HomeConfig{
				DSLDown:           preset.DSLDown,
				DSLUp:             preset.DSLUp,
				TimeScale:         ss.TimeScale,
				Phones:            withVariability(phones, ss.Variability),
				Seed:              ss.Seed,
				RRCPromotionDelay: tech.promotion,
			})
			if err != nil {
				return err
			}
			defer h.Close()
			base, err := h.BaselineVoD(context.Background(), origin.URL, "/bipbop/master.m3u8", 0.2, "q4")
			if err != nil {
				return err
			}
			devs := h.AdmissibleDevices(2, 5*time.Second)
			boost, err := h.BoostVoD(context.Background(), origin.URL, "/bipbop/master.m3u8", core.VoDOptions{
				Algo: scheduler.Greedy, Phones: devs, PrebufferFrac: 0.2, Quality: "q4",
			})
			if err != nil {
				return err
			}
			baseStart = append(baseStart, base.Prebuffer.Seconds())
			boostStart = append(boostStart, boost.Prebuffer.Seconds())
			boostTotal = append(boostTotal, boost.Total.Seconds())
			return nil
		}); err != nil {
			return nil, err
		}
		rows = append(rows, TechRow{
			Tech:            tech.name,
			BaselineStartup: time.Duration(stats.Mean(baseStart) * float64(time.Second)),
			BoostedStartup:  time.Duration(stats.Mean(boostStart) * float64(time.Second)),
			BoostedTotal:    time.Duration(stats.Mean(boostTotal) * float64(time.Second)),
			PhoneDown:       dl * params.FadingMean,
			RRCPromotion:    tech.promotion,
		})
	}
	return rows, nil
}
