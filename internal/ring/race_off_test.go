//go:build !race

package ring

const raceDetector = false
