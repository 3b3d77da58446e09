//go:build !race

package planner

// raceEnabled reports that the race detector instruments this build;
// see race_enabled_test.go.
const raceEnabled = false
