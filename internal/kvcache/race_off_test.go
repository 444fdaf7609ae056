//go:build !race

package kvcache

const raceDetector = false
