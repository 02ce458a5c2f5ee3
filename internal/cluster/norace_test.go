//go:build !race

package cluster

// raceDetector is set when the race detector is on (race_test.go).
const raceDetector = false
