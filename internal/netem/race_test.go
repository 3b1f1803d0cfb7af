//go:build race

package netem

// raceEnabled skips the wall-clock link-rate budget: the race detector
// multiplies the CPU cost of moving every byte, and at TimeScale 150
// that cost masquerades as link time.
const raceEnabled = true
