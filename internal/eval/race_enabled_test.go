//go:build race

package eval_test

// raceEnabled reports whether the race detector is on; allocation-count
// assertions are skipped under it (instrumentation allocates).
const raceEnabled = true
