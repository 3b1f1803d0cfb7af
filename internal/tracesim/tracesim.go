// Package tracesim runs the paper's §6 trace-driven analyses: what 3GOL
// delivers to DSLAM subscribers when cellular volume caps must be
// respected (Fig. 11a), the load the onloaded traffic puts on the
// cellular network with and without budgets (Fig. 11b), and the relative
// traffic increase as adoption grows (Fig. 11c) — plus the Fig. 10 cap
// usage CDF that motivates it all.
package tracesim

import (
	"math"
	"math/rand"
	"sort"

	"threegol/internal/diurnal"
	"threegol/internal/dsl"
	"threegol/internal/fleet"
	"threegol/internal/stats"
	"threegol/internal/traces"
)

// Config sets the §6 scenario parameters; zero values select the paper's.
type Config struct {
	// DSLBits is the subscribers' access speed (paper: 3 Mbps lines).
	DSLBits float64
	// PhoneBits is one device's usable 3G rate during a boost.
	PhoneBits float64
	// Devices is the number of 3G devices per household (paper: 2).
	Devices int
	// DailyBudgetBytes is the per-device daily allowance (paper: 20 MB,
	// the average free/unused capacity in the MNO dataset).
	DailyBudgetBytes float64
	// MinBoostBytes is the smallest video worth boosting (paper: 750 KB,
	// anything needing >2 s on DSL).
	MinBoostBytes float64
}

func (c Config) withDefaults() Config {
	if c.DSLBits <= 0 {
		c.DSLBits = 3e6
	}
	if c.PhoneBits <= 0 {
		// HSPA+ devices per the paper's §6 scenario; with two of them the
		// parallel ceiling is (3+4.8)/3 = 2.6 — the upper end of the
		// paper's Fig. 11(a) axis.
		c.PhoneBits = 2.4e6
	}
	if c.Devices <= 0 {
		c.Devices = 2
	}
	if c.DailyBudgetBytes <= 0 {
		c.DailyBudgetBytes = 20 * traces.MB
	}
	if c.MinBoostBytes <= 0 {
		c.MinBoostBytes = 750 * 1024
	}
	return c
}

// budget returns the household's daily onloading budget in bytes.
func (c Config) budget() float64 {
	return float64(c.Devices) * c.DailyBudgetBytes
}

// threeGBits returns the aggregate 3G rate of the household's devices.
func (c Config) threeGBits() float64 {
	return float64(c.Devices) * c.PhoneBits
}

// model builds the fleet boost model for a line running at dslBits —
// the single home of the shared per-transfer arithmetic (see
// fleet.BoostModel).
func (c Config) model(dslBits float64) fleet.BoostModel {
	return fleet.BoostModel{
		DSLBits:       dslBits,
		G3Bits:        c.threeGBits(),
		MinBoostBytes: c.MinBoostBytes,
	}
}

// UserOutcome is one subscriber's day under 3GOL with budgets.
type UserOutcome struct {
	UserID        int
	Videos        int
	DSLSeconds    float64 // total video latency over DSL alone
	BoostSeconds  float64 // total latency with budgeted 3GOL
	OnloadedBytes float64
	// Speedup is DSLSeconds/BoostSeconds (≥1).
	Speedup float64
}

// Fig11a simulates every subscriber's day: each video ≥ MinBoostBytes is
// boosted with whatever daily budget remains. During a boost the
// download runs at DSL+3G with the 3G share metered against the budget;
// once the budget runs dry the remainder goes over DSL alone. The
// returned outcomes feed the speedup CDF of Fig. 11(a). The arithmetic
// is fleet.BoostModel's — this is a thin adapter binding it to a DSLAM
// trace with one uniform line rate: Fig11aHeterogeneous with no
// per-subscriber rates.
func Fig11a(tr *traces.DSLAMTrace, cfg Config) []UserOutcome {
	return Fig11aHeterogeneous(tr, nil, cfg)
}

// sortedUserIDs fixes the subscriber iteration order: the outcome slices
// feed CDFs and golden comparisons, so map order must not leak into
// them.
func sortedUserIDs(byUser map[int][]traces.VideoSession) []int {
	ids := make([]int, 0, len(byUser))
	for id := range byUser {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// userDay folds one subscriber's sessions through the boost model with a
// shared daily budget.
func userDay(userID int, sessions []traces.VideoSession, model fleet.BoostModel, budget float64) UserOutcome {
	out := UserOutcome{UserID: userID, Videos: len(sessions)}
	for _, s := range sessions {
		b := model.Apply(s.SizeBytes, budget)
		budget -= b.OnloadedBytes
		out.DSLSeconds += b.DSLSeconds
		out.BoostSeconds += b.BoostSeconds
		out.OnloadedBytes += b.OnloadedBytes
	}
	if out.BoostSeconds > 0 {
		out.Speedup = out.DSLSeconds / out.BoostSeconds
	} else {
		out.Speedup = 1
	}
	return out
}

// SpeedupCDF builds the Fig. 11(a) CDF over per-user speedups.
func SpeedupCDF(outcomes []UserOutcome) *stats.ECDF {
	xs := make([]float64, len(outcomes))
	for i, o := range outcomes {
		xs[i] = o.Speedup
	}
	return stats.NewECDF(xs)
}

// LoadSeries is the Fig. 11(b) result: onloaded cellular load over the
// day in fixed bins, budgeted and unlimited, against the area's backhaul.
type LoadSeries struct {
	BinSeconds    float64
	BudgetedMbps  []float64
	UnlimitedMbps []float64
	// BackhaulMbps is the covering towers' total backhaul (paper: 2
	// towers × 40 Mbps).
	BackhaulMbps float64
}

// Fig11b computes the onloaded traffic series, following the paper's
// §6 rule: the budgeted case accelerates each user's *first* video that
// could benefit (size ≥ 750 KB), metered against the two-device daily
// budget; the unlimited case onloads the 3G share of every boostable
// video. Onloaded bytes spread over the boosted transfer's duration —
// the cell carries them while the download runs, not at the instant of
// the request.
func Fig11b(tr *traces.DSLAMTrace, cfg Config, binSeconds float64) LoadSeries {
	cfg = cfg.withDefaults()
	budgeted := fleet.NewLoadBins(binSeconds)
	unlimited := fleet.NewLoadBins(binSeconds)
	dsl, g3 := cfg.DSLBits, cfg.threeGBits()
	shareg3 := g3 / (dsl + g3)

	boosted := make(map[int]bool) // users whose first video was boosted
	for _, s := range tr.Sessions {
		if s.SizeBytes < cfg.MinBoostBytes {
			continue
		}
		ideal := s.SizeBytes * shareg3
		// Unlimited: everything boosted; transfer runs at dsl+3G.
		unlimited.Spread(s.Time, s.SizeBytes*8/(dsl+g3), ideal)

		// Budgeted: only the user's first boostable video, capped by the
		// daily budget.
		if boosted[s.UserID] {
			continue
		}
		boosted[s.UserID] = true
		onload := math.Min(ideal, cfg.budget())
		dur := math.Max((s.SizeBytes-onload)*8/dsl, onload*8/g3)
		budgeted.Spread(s.Time, dur, onload)
	}
	return LoadSeries{
		BinSeconds:    budgeted.BinSeconds,
		BudgetedMbps:  budgeted.Mbps(1),
		UnlimitedMbps: unlimited.Mbps(1),
		BackhaulMbps:  2 * 40,
	}
}

// MeanOnloadedFirstVideoBytes reports the average bytes per user the
// Fig. 11(b) budgeted rule onloads (the paper: 29.78 MB/day with two
// devices).
func MeanOnloadedFirstVideoBytes(tr *traces.DSLAMTrace, cfg Config) float64 {
	cfg = cfg.withDefaults()
	shareg3 := cfg.threeGBits() / (cfg.DSLBits + cfg.threeGBits())
	// Summed in session order: a sum in map order differs between runs
	// in its last bits.
	boosted := make(map[int]bool)
	var total float64
	for _, s := range tr.Sessions {
		if s.SizeBytes < cfg.MinBoostBytes || boosted[s.UserID] {
			continue
		}
		boosted[s.UserID] = true
		total += math.Min(s.SizeBytes*shareg3, cfg.budget())
	}
	if len(boosted) == 0 {
		return 0
	}
	return total / float64(len(boosted))
}

// PeakMbps returns the maximum of a series.
func PeakMbps(series []float64) float64 {
	return fleet.Peak(series)
}

// MeanOnloadedBytesPerUser reports the average bytes a user onloads per
// day under budgets (the paper finds ≈29.78 MB with two devices).
func MeanOnloadedBytesPerUser(outcomes []UserOutcome) float64 {
	if len(outcomes) == 0 {
		return 0
	}
	var t float64
	for _, o := range outcomes {
		t += o.OnloadedBytes
	}
	return t / float64(len(outcomes))
}

// AdoptionPoint is one Fig. 11(c) point.
type AdoptionPoint struct {
	Fraction      float64 // fraction of 3G users adopting 3GOL
	TotalIncrease float64 // relative increase in daily 3G traffic
	PeakIncrease  float64 // relative increase at the mobile peak hour
}

// Fig11c computes the relative 3G traffic increase as adoption grows.
// Base traffic is the MNO population's daily volume spread over the
// mobile diurnal profile; 3GOL demand adds perUserDaily bytes for each
// adopter spread over the *wired* profile — the peak misalignment of
// Fig. 1 is why the peak increase sits below the total increase.
func Fig11c(users []traces.MNOUser, fractions []float64, perUserDaily float64) []AdoptionPoint {
	if perUserDaily <= 0 {
		perUserDaily = 20 * traces.MB
	}
	var baseDaily float64
	for _, u := range users {
		baseDaily += u.CapBytes * u.UsedFrac / 30
	}
	// Hourly shapes normalised to unit mass.
	baseShape := fleet.HourlyMass(diurnal.Mobile)
	onloadShape := fleet.HourlyMass(diurnal.Wired)
	peakHour := diurnal.Mobile.PeakHour()

	var out []AdoptionPoint
	for _, f := range fractions {
		added := f * float64(len(users)) * perUserDaily
		pt := AdoptionPoint{Fraction: f}
		if baseDaily > 0 {
			pt.TotalIncrease = added / baseDaily
			basePeak := baseDaily * baseShape[peakHour]
			addedPeak := added * onloadShape[peakHour]
			pt.PeakIncrease = addedPeak / basePeak
		}
		out = append(out, pt)
	}
	return out
}

// Fig10 builds the cap-usage CDF from an MNO population.
func Fig10(users []traces.MNOUser) *stats.ECDF {
	return stats.NewECDF(traces.UsedFractions(users))
}

// AssignLineRates draws a per-subscriber ADSL downlink rate from a loop
// population — the heterogeneous-plant extension of the Fig. 11(a)
// analysis. The paper's DSLAM population was uniform 3 Mbps; real plants
// mix short urban loops with long rural ones, and the per-user speedup
// spread widens accordingly.
func AssignLineRates(tr *traces.DSLAMTrace, pop dsl.Population, seed int64) map[int]float64 {
	rng := rand.New(rand.NewSource(seed))
	users := make(map[int]bool)
	for _, s := range tr.Sessions {
		users[s.UserID] = true
	}
	ids := make([]int, 0, len(users))
	for id := range users {
		ids = append(ids, id)
	}
	sort.Ints(ids) // deterministic assignment order
	lines := pop.Sample(len(ids), rng)
	rates := make(map[int]float64, len(ids))
	for i, id := range ids {
		down, _ := lines[i].SyncRates()
		if down < 256e3 {
			down = 256e3 // a line below this would not carry video at all
		}
		rates[id] = down
	}
	return rates
}

// Fig11aHeterogeneous runs the budgeted speedup analysis with
// per-subscriber DSL rates (cfg.DSLBits is ignored for users present in
// rates; absent users, and every user when rates is nil, fall back to
// it).
func Fig11aHeterogeneous(tr *traces.DSLAMTrace, rates map[int]float64, cfg Config) []UserOutcome {
	cfg = cfg.withDefaults()

	byUser := tr.SessionsByUser()
	outcomes := make([]UserOutcome, 0, len(byUser))
	for _, userID := range sortedUserIDs(byUser) {
		dslRate := cfg.DSLBits
		if r, ok := rates[userID]; ok && r > 0 {
			dslRate = r
		}
		outcomes = append(outcomes, userDay(userID, byUser[userID], cfg.model(dslRate), cfg.budget()))
	}
	return outcomes
}
