// Package traces synthesises the two proprietary datasets the paper's §6
// analysis rests on, matching every published marginal:
//
//   - MNO: per-user monthly data demand versus contracted cap for a mobile
//     operator's broadband customers. Fig. 10 anchors: 40% of users consume
//     under 10% of their cap, 75% under 50%, with ≈20 MB/day (≈600 MB per
//     month) of average leftover volume.
//   - DSLAM: flow-level video sessions of the subscribers behind one DSLAM
//     (18,000 lines): 68% of users view at least one video per day; viewers
//     watch 14.12 videos/day on average (median 6, std 30.13 — a lognormal
//     fit); request times follow the wired diurnal curve of Fig. 1.
//
// Generators are deterministic given a seed.
package traces

import (
	"math"
	"math/rand"
	"sort"

	"threegol/internal/diurnal"
	"threegol/internal/stats"
)

// MB is one megabyte in bytes.
const MB = 1 << 20

// MNOUser is one cellular subscriber.
type MNOUser struct {
	ID       int
	CapBytes float64
	// UsedFrac is the fraction of the cap the user consumes in the
	// reference month.
	UsedFrac float64
	// MonthlyUsage is a series of monthly usage values (bytes), wobbling
	// around the reference month — the estimator back-test input.
	MonthlyUsage []float64
}

// FreeSeries returns the user's monthly free capacity (cap − usage).
func (u MNOUser) FreeSeries() []float64 {
	out := make([]float64, len(u.MonthlyUsage))
	for i, used := range u.MonthlyUsage {
		free := u.CapBytes - used
		if free < 0 {
			free = 0
		}
		out[i] = free
	}
	return out
}

// MNOConfig parameterises the MNO population generator.
type MNOConfig struct {
	Users int
	// Months of usage history per user; 0 selects 18.
	Months int
	// MonthlyWobbleStd is the relative std of month-to-month usage
	// variation; 0 selects 0.35.
	MonthlyWobbleStd float64
}

// usedFracCDF is the piecewise-linear inverse CDF of the cap-usage
// fraction, anchored on the paper's Fig. 10: P(frac ≤ 0.1) = 0.40,
// P(frac ≤ 0.5) = 0.75, with the remaining quarter stretching to users
// who hit their cap.
var usedFracCDF = []stats.Point{
	{X: 0.00, Y: 0.000}, // (cumulative prob, fraction of cap)
	{X: 0.40, Y: 0.100},
	{X: 0.75, Y: 0.500},
	{X: 0.95, Y: 0.900},
	{X: 1.00, Y: 1.000},
}

// sampleUsedFrac draws a cap-usage fraction from the anchored CDF given
// a uniform rank u.
func sampleUsedFrac(u float64) float64 {
	for i := 1; i < len(usedFracCDF); i++ {
		lo, hi := usedFracCDF[i-1], usedFracCDF[i]
		if u <= hi.X {
			frac := (u - lo.X) / (hi.X - lo.X)
			return lo.Y + frac*(hi.Y-lo.Y)
		}
	}
	return 1
}

// planCaps are typical 2013-era monthly volume caps; weights sum to 1.
// The 10 GB plan mirrors the paper's own handsets ("data plan cap
// (10GB/month)").
var planCaps = []struct {
	Bytes  float64
	Weight float64
}{
	{250 * MB, 0.18},
	{500 * MB, 0.34},
	{1024 * MB, 0.28},
	{2048 * MB, 0.13},
	{5120 * MB, 0.05},
	{10240 * MB, 0.02},
}

// sampleCap draws a plan cap. rank ∈ [0,1] is the user's usage-fraction
// rank: plan choice is rank-correlated with usage (heavy users buy big
// plans), which is what lets the population carry both a low median
// usage fraction (Fig. 10) and a mean daily demand comparable to the
// 20 MB onloading allowance (Fig. 11c's ≈100% increase at full
// adoption).
func sampleCap(rng *rand.Rand, rank float64) float64 {
	// Mixture copula: with probability 0.55 the plan quantile equals the
	// usage rank (comonotonic), otherwise it is independent — keeping the
	// plan-mix marginal exactly while inducing the rank correlation.
	v := rank
	if rng.Float64() >= 0.55 {
		v = rng.Float64()
	}
	acc := 0.0
	for _, p := range planCaps {
		acc += p.Weight
		if v <= acc {
			return p.Bytes
		}
	}
	return planCaps[len(planCaps)-1].Bytes
}

// samplePlan draws a subscriber's plan cap and cap-usage fraction: one
// uniform rank, the rank-correlated cap, and the Fig. 10 anchored
// fraction. Both MNO samplers share it so their RNG streams agree.
func samplePlan(rng *rand.Rand) (capBytes, usedFrac float64) {
	rank := rng.Float64()
	capBytes = sampleCap(rng, rank)
	usedFrac = sampleUsedFrac(rank)
	return capBytes, usedFrac
}

// sampleMonthUsage draws one month of usage wobbling around base,
// clamped at the plan cap.
func sampleMonthUsage(rng *rand.Rand, base, capBytes, wobble float64) float64 {
	w := stats.TruncNormal{Mean: 1, Std: wobble, Lo: 0.5, Hi: 1.6}.Sample(rng)
	u := base * w
	if u > capBytes {
		u = capBytes
	}
	return u
}

// SampleMNOUser draws one cellular subscriber: plan cap (rank-correlated
// with usage), cap-usage fraction from the Fig. 10 anchored CDF, and
// `months` of wobbling monthly usage history. months ≤ 0 selects 18 and
// wobble ≤ 0 selects 0.35, matching GenerateMNO's defaults. Exported so
// the fleet engine can populate per-shard device histories from its own
// RNG stream without materialising a whole MNO population.
func SampleMNOUser(rng *rand.Rand, id, months int, wobble float64) MNOUser {
	if months <= 0 {
		months = 18
	}
	if wobble <= 0 {
		wobble = 0.35
	}
	capB, frac := samplePlan(rng)
	base := capB * frac
	usage := make([]float64, months)
	for m := range usage {
		usage[m] = sampleMonthUsage(rng, base, capB, wobble)
	}
	return MNOUser{ID: id, CapBytes: capB, UsedFrac: frac, MonthlyUsage: usage}
}

// SampleMNOFree draws one subscriber with SampleMNOUser's exact RNG
// stream but writes the free-capacity series (cap − usage, clamped at 0
// — what MNOUser.FreeSeries computes) into the caller's buffer instead
// of allocating the usage history. free must hold at least `months`
// entries after defaulting (months ≤ 0 selects 18, wobble ≤ 0 selects
// 0.35); free[:months] is filled. The fleet engine's allocation-free
// home generator calls it with a pooled per-shard scratch buffer.
func SampleMNOFree(rng *rand.Rand, months int, wobble float64, free []float64) (capBytes, usedFrac float64) {
	if months <= 0 {
		months = 18
	}
	if wobble <= 0 {
		wobble = 0.35
	}
	capB, frac := samplePlan(rng)
	base := capB * frac
	for m := 0; m < months; m++ {
		f := capB - sampleMonthUsage(rng, base, capB, wobble)
		if f < 0 {
			f = 0
		}
		free[m] = f
	}
	return capB, frac
}

// GenerateMNO synthesises the MNO population.
func GenerateMNO(cfg MNOConfig, seed int64) []MNOUser {
	rng := rand.New(rand.NewSource(seed))
	users := make([]MNOUser, cfg.Users)
	for i := range users {
		users[i] = SampleMNOUser(rng, i, cfg.Months, cfg.MonthlyWobbleStd)
	}
	return users
}

// UsedFractions extracts each user's reference cap-usage fraction — the
// sample behind the paper's Fig. 10 CDF.
func UsedFractions(users []MNOUser) []float64 {
	out := make([]float64, len(users))
	for i, u := range users {
		out[i] = u.UsedFrac
	}
	return out
}

// MeanDailyLeftoverBytes reports the population's average unused volume
// per day (paper: ≈20 MB/device/day).
func MeanDailyLeftoverBytes(users []MNOUser) float64 {
	if len(users) == 0 {
		return 0
	}
	var total float64
	for _, u := range users {
		total += u.CapBytes * (1 - u.UsedFrac)
	}
	return total / float64(len(users)) / 30
}

// VideoSession is one video request in the DSLAM trace.
type VideoSession struct {
	UserID int
	// Time is seconds since midnight.
	Time float64
	// SizeBytes is the full size of the requested video file.
	SizeBytes float64
}

// DSLAMTrace is one synthesised day of video traffic behind a DSLAM.
type DSLAMTrace struct {
	NumUsers int
	// ADSLBits is the subscribers' access speed in bits/s (the paper's
	// trace population had 3 Mbps lines).
	ADSLBits float64
	Sessions []VideoSession
}

// DSLAMConfig parameterises the DSLAM generator.
type DSLAMConfig struct {
	// Users behind the DSLAM; 0 selects 18000 (the paper's coverage).
	Users int
	// ViewerFrac is the fraction of users with ≥1 video; 0 selects 0.68.
	ViewerFrac float64
	// MeanVideoBytes is the average video file size; 0 selects 50 MB
	// (the paper's cited YouTube average).
	MeanVideoBytes float64
	// ADSLBits is the access speed; 0 selects 3 Mbps.
	ADSLBits float64
}

// SampleVideosPerDay matches the paper's viewer activity: lognormal with
// median 6 and mean 14.12 — which implies σ² = 2·ln(14.12/6) and std
// ≈ 30.1, matching all three published moments at once. Exported for the
// fleet engine's per-shard demand generation.
func SampleVideosPerDay(rng *rand.Rand) int {
	const median = 6.0
	const mean = 14.12
	sigma := math.Sqrt(2 * math.Log(mean/median))
	n := int(math.Round(stats.LogNormal{Mu: math.Log(median), Sigma: sigma}.Sample(rng)))
	if n < 1 {
		n = 1 // a viewer views at least one video
	}
	return n
}

// SampleHour draws an hour-of-day from a diurnal profile by rejection
// sampling (peak normalised to 1).
func SampleHour(rng *rand.Rand, p diurnal.Profile) float64 {
	for {
		h := rng.Float64() * 24
		if rng.Float64() <= p.At(h) {
			return h
		}
	}
}

// GenerateDSLAM synthesises one day of DSLAM video sessions.
func GenerateDSLAM(cfg DSLAMConfig, seed int64) *DSLAMTrace {
	rng := rand.New(rand.NewSource(seed))
	users := cfg.Users
	if users <= 0 {
		users = 18000
	}
	viewerFrac := cfg.ViewerFrac
	if viewerFrac <= 0 {
		viewerFrac = 0.68
	}
	meanSize := cfg.MeanVideoBytes
	if meanSize <= 0 {
		meanSize = 50 * MB
	}
	adsl := cfg.ADSLBits
	if adsl <= 0 {
		adsl = 3e6
	}
	sizeDist := stats.LogNormalFromMoments(meanSize, meanSize*0.9)

	tr := &DSLAMTrace{NumUsers: users, ADSLBits: adsl}
	for u := 0; u < users; u++ {
		if rng.Float64() >= viewerFrac {
			continue
		}
		n := SampleVideosPerDay(rng)
		for v := 0; v < n; v++ {
			tr.Sessions = append(tr.Sessions, VideoSession{
				UserID:    u,
				Time:      SampleHour(rng, diurnal.Wired) * 3600,
				SizeBytes: sizeDist.Sample(rng),
			})
		}
	}
	sort.Slice(tr.Sessions, func(i, j int) bool { return tr.Sessions[i].Time < tr.Sessions[j].Time })
	return tr
}

// Viewers returns the distinct users with at least one session.
func (t *DSLAMTrace) Viewers() int {
	seen := make(map[int]bool)
	for _, s := range t.Sessions {
		seen[s.UserID] = true
	}
	return len(seen)
}

// SessionsByUser groups the trace by user, preserving time order.
func (t *DSLAMTrace) SessionsByUser() map[int][]VideoSession {
	out := make(map[int][]VideoSession)
	for _, s := range t.Sessions {
		out[s.UserID] = append(out[s.UserID], s)
	}
	return out
}
