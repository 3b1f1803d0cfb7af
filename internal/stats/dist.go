package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// LogNormal is a log-normal distribution parameterised by the mean and
// standard deviation of the *resulting* variate (not of the underlying
// normal), which is how the paper reports its photo-size and video-size
// populations (e.g. photos: mean 2.5 MB, sd 0.74 MB).
type LogNormal struct {
	Mu    float64 // mean of log X
	Sigma float64 // std of log X
}

// LogNormalFromMoments builds a LogNormal whose variates have the given
// arithmetic mean and standard deviation. It panics when mean ≤ 0 or
// sd < 0 — both indicate a misconfigured experiment.
func LogNormalFromMoments(mean, sd float64) LogNormal {
	if mean <= 0 || sd < 0 {
		panic(fmt.Sprintf("stats: invalid lognormal moments mean=%v sd=%v", mean, sd))
	}
	if sd == 0 {
		return LogNormal{Mu: math.Log(mean), Sigma: 0}
	}
	v := sd * sd
	m2 := mean * mean
	sigma2 := math.Log(1 + v/m2)
	return LogNormal{
		Mu:    math.Log(mean) - sigma2/2,
		Sigma: math.Sqrt(sigma2),
	}
}

// Sample draws one variate.
func (d LogNormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(d.Mu + d.Sigma*rng.NormFloat64())
}

// Mean returns the arithmetic mean of the distribution.
func (d LogNormal) Mean() float64 {
	return math.Exp(d.Mu + d.Sigma*d.Sigma/2)
}

// Std returns the arithmetic standard deviation of the distribution.
func (d LogNormal) Std() float64 {
	s2 := d.Sigma * d.Sigma
	return math.Sqrt((math.Exp(s2) - 1)) * d.Mean()
}

// TruncNormal is a normal distribution truncated to [Lo, Hi], sampled by
// rejection with a clamp fallback. It models bounded physical quantities
// such as signal strength or per-device rate caps.
type TruncNormal struct {
	Mean, Std float64
	Lo, Hi    float64
}

// Sample draws one variate. After 64 rejected draws it clamps, which keeps
// the sampler total even for badly conditioned parameters.
func (d TruncNormal) Sample(rng *rand.Rand) float64 {
	for i := 0; i < 64; i++ {
		x := d.Mean + d.Std*rng.NormFloat64()
		if x >= d.Lo && x <= d.Hi {
			return x
		}
	}
	if d.Mean < d.Lo {
		return d.Lo
	}
	if d.Mean > d.Hi {
		return d.Hi
	}
	return d.Mean
}
