package testutil

import "testing"

var allocSink []byte

// TestMeasureAllocsRoundsUp checks that a single allocation in a long
// run is reported, and that between's allocations are not counted.
func TestMeasureAllocsRoundsUp(t *testing.T) {
	i := 0
	allocs, bytes := MeasureAllocs(t, nil,
		func() bool {
			i++
			if i == 150 {
				allocSink = make([]byte, 64)
			}
			return i <= 300
		},
		func() { allocSink = make([]byte, 4096) })
	if allocs != 1 || bytes != 1 {
		t.Fatalf("one 64-byte allocation in 300 ops = %d allocs, %d B per op; want 1, 1", allocs, bytes)
	}
}

// TestAllocsPerRunRoundsUp checks that the warm-up call is not counted
// and that one allocation in the measured runs reads 1.
func TestAllocsPerRunRoundsUp(t *testing.T) {
	calls := 0
	f := func() {
		calls++
		if calls == 1 || calls == 150 {
			allocSink = make([]byte, 64)
		}
	}
	if got := AllocsPerRun(t, 300, f); got != 1 || calls != 301 {
		t.Fatalf("one allocation in 300 runs = %d allocs per run over %d calls; want 1 over 301", got, calls)
	}
}
