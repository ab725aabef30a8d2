//go:build !race

package bad

const raceEnabled = false
