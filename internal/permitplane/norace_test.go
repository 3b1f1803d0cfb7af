//go:build !race

package permitplane

const raceEnabled = false
