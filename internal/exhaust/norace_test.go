//go:build !race

package exhaust

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
