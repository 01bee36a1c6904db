//go:build race

package storage

// raceEnabled reports whether the race detector is on; allocation-count
// assertions are skipped under it (instrumentation allocates).
const raceEnabled = true
