//go:build !race

package soda

const raceEnabled = false
