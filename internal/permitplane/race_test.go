//go:build race

package permitplane

// raceEnabled skips the allocation budgets: the race detector changes
// what allocates, and sync.Pool drops at random under it.
const raceEnabled = true
