//go:build race

package cluster

// raceDetector is set when the race detector is on. It makes sync.Pool drop
// a random quarter of what is put back, so a node's pooled reply writer is
// now and then allocated afresh, and a count of what one request over a
// connection allocates is not exact.
const raceDetector = true
