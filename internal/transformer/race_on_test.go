//go:build race

package transformer

// raceDetector reports a -race build, under which sync.Pool drops a share of
// what is put into it and allocation counts stop meaning anything.
const raceDetector = true
