//go:build !race

package experiments

// raceEnabled reports whether this binary was built with the race
// detector, whose instrumentation allocates on paths that are
// allocation-free in a plain build.
const raceEnabled = false
