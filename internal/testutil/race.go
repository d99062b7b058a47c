//go:build race

package testutil

const raceEnabled = true
