//go:build race

package cq

// raceEnabled reports whether the race detector is on; allocation-count
// assertions are skipped under it (instrumentation allocates).
const raceEnabled = true
