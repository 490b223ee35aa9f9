//go:build !race

package gf256

const raceEnabled = false
