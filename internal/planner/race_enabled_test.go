//go:build race

package planner

// raceEnabled reports that the race detector instruments this build;
// heap-measurement assertions are skipped (instrumentation inflates and
// distorts allocation sizes) while correctness checks still run.
const raceEnabled = true
