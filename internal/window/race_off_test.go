//go:build !race

package window

// raceEnabled mirrors internal/core's test helper: allocation gates are
// skipped under the race detector.
const raceEnabled = false
