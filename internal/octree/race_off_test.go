//go:build !race

package octree

const raceEnabled = false
