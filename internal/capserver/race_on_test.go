//go:build race

package capserver

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation-count tests skip under it.
const raceEnabled = true
