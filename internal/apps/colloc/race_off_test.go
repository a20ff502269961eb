//go:build !race

package colloc_test

const raceEnabled = false
