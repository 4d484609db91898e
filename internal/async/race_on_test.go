//go:build race

package async

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation-regression tests skip under it.
const raceEnabled = true
