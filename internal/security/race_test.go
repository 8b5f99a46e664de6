//go:build race

package security

// raceEnabled reports a -race build. Allocation counts are not exact
// under the race detector: sync.Pool drops items at random, so fmt (the
// pattern names) allocates a varying amount.
const raceEnabled = true
