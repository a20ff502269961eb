//go:build !race

package nbody

const raceEnabled = false
