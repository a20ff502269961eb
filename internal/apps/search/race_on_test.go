//go:build race

package search_test

// raceEnabled: allocation counts mean nothing under the race detector
// (sync.Pool drops a quarter of what it is handed, on purpose).
const raceEnabled = true
