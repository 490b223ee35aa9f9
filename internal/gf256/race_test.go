//go:build race

package gf256

// raceEnabled reports that the race detector is instrumenting this
// build; allocation-count assertions are skipped because the runtime
// itself allocates under -race.
const raceEnabled = true
