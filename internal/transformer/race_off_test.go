//go:build !race

package transformer

const raceDetector = false
