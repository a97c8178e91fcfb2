//go:build race

package rewrite

// raceEnabled reports a -race build, whose sync.Pool drops pooled items at
// random: allocation counts through the pools do not hold there.
const raceEnabled = true
