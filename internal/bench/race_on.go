//go:build race

package bench

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates and dominates timings, so allocation-count and
// timing-shape assertions are skipped under -race.
const raceEnabled = true
