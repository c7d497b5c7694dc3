//go:build !race

package ni

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
