//go:build !race

package rewrite

const raceEnabled = false
