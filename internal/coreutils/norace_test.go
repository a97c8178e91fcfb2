//go:build !race

package coreutils

const raceEnabled = false
