package hls

import "time"

// PlayoutStats summarises a playback session reconstructed from segment
// completion times — the metric the paper's deferred playout-phase
// scheduler extension optimises.
type PlayoutStats struct {
	// Startup is when playback begins (the prebuffer target filled, in
	// order).
	Startup time.Duration
	// Stalls counts rebuffering events after startup.
	Stalls int
	// StallTime is the total rebuffering duration.
	StallTime time.Duration
	// Finished is when the last segment arrived.
	Finished time.Duration
}

// SimulatePlayout reconstructs the player timeline given each segment's
// download-completion time (indexed by segment number), the per-segment
// media duration, and the number of segments the player buffers before
// starting. Playback consumes segments in order at real time; a missing
// next segment stalls the player until it arrives.
//
// The reconstruction is exact for a player with an unbounded forward
// buffer: segment i is playable at ready(i) = max over j ≤ i of done(j),
// and the player begins (or resumes) only when the next needed segment
// is ready.
func SimulatePlayout(done []time.Duration, segDur float64, prebufferSegs int) PlayoutStats {
	var stats PlayoutStats
	if len(done) == 0 {
		return stats
	}
	if prebufferSegs < 1 {
		prebufferSegs = 1
	}
	if prebufferSegs > len(done) {
		prebufferSegs = len(done)
	}
	// ready[i]: when segments 0..i have all arrived.
	ready := make([]time.Duration, len(done))
	var maxSoFar time.Duration
	for i, d := range done {
		if d > maxSoFar {
			maxSoFar = d
		}
		ready[i] = maxSoFar
	}
	stats.Finished = maxSoFar
	stats.Startup = ready[prebufferSegs-1]

	seg := time.Duration(segDur * float64(time.Second))
	// Wall-clock time at which the player finishes consuming segment i.
	clock := stats.Startup
	for i := 0; i < len(done); i++ {
		if ready[i] > clock {
			// The next segment is not there yet: stall until it is.
			stats.Stalls++
			stats.StallTime += ready[i] - clock
			clock = ready[i]
		}
		clock += seg
	}
	return stats
}
