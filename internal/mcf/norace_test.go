//go:build !race

package mcf

const raceEnabled = false
