//go:build race

package soda

// raceEnabled reports that the race detector is instrumenting this
// build; whole-op allocation ceilings are skipped because sync.Pool
// drops a share of its puts under -race.
const raceEnabled = true
