//go:build !race

package security

const raceEnabled = false
