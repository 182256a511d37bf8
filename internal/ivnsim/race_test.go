//go:build race

package ivnsim

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = true
