//go:build race

package main

// raceEnabled reports a -race build, which the benchmark refuses to
// time.
const raceEnabled = true
