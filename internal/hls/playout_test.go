package hls

import (
	"testing"
	"time"
)

func secs(vals ...float64) []time.Duration {
	out := make([]time.Duration, len(vals))
	for i, v := range vals {
		out[i] = time.Duration(v * float64(time.Second))
	}
	return out
}

func TestSimulatePlayoutNoStalls(t *testing.T) {
	// Segments arrive faster than they play (10 s media each, done at
	// 1..4 s): start after 2 buffered, never stall.
	st := SimulatePlayout(secs(1, 2, 3, 4), 10, 2)
	if st.Startup != 2*time.Second {
		t.Errorf("startup = %v, want 2s", st.Startup)
	}
	if st.Stalls != 0 || st.StallTime != 0 {
		t.Errorf("unexpected stalls: %+v", st)
	}
	if st.Finished != 4*time.Second {
		t.Errorf("finished = %v, want 4s", st.Finished)
	}
}

func TestSimulatePlayoutStalls(t *testing.T) {
	// Seg0 at 1s, seg1 at 30s, seg2 at 31s, 10s media, prebuffer 1.
	// Play seg0 1→11; seg1 ready at 30 → stall 19s; play 30→40; seg2
	// ready at 31 < 40 → no stall.
	st := SimulatePlayout(secs(1, 30, 31), 10, 1)
	if st.Startup != time.Second {
		t.Errorf("startup = %v", st.Startup)
	}
	if st.Stalls != 1 {
		t.Errorf("stalls = %d, want 1", st.Stalls)
	}
	if st.StallTime != 19*time.Second {
		t.Errorf("stall time = %v, want 19s", st.StallTime)
	}
}

func TestSimulatePlayoutOutOfOrderCompletion(t *testing.T) {
	// Seg1 finishes before seg0: playback cannot start until seg0 is in
	// (in-order consumption).
	st := SimulatePlayout(secs(5, 2), 10, 1)
	if st.Startup != 5*time.Second {
		t.Errorf("startup = %v, want 5s (head-of-line)", st.Startup)
	}
}

func TestSimulatePlayoutPrebufferClamps(t *testing.T) {
	st := SimulatePlayout(secs(1, 2), 10, 99)
	if st.Startup != 2*time.Second {
		t.Errorf("startup = %v, want full-buffer clamp 2s", st.Startup)
	}
	st = SimulatePlayout(secs(3), 10, 0)
	if st.Startup != 3*time.Second {
		t.Errorf("startup = %v, want 3s (min prebuffer 1)", st.Startup)
	}
	if got := SimulatePlayout(nil, 10, 1); got.Finished != 0 {
		t.Errorf("empty playout = %+v", got)
	}
}
