package testutil

import (
	"runtime"
	"runtime/debug"
)

// MeasureAllocs pins the scheduler to one processor, runs warmup (lazy
// initialization, cache fills) outside the measured window, collects
// and returns freed memory to the OS, then drives op until it returns
// false, calling between (when non-nil) after each op that returned
// true. It returns the Mallocs and
// TotalAlloc deltas over the op calls, the last one included, per op
// that returned true, rounded up: one allocation in a long run reads 1,
// not 0. Determinism: on a single goroutine with no timers the runtime
// performs no background heap allocation, so the same seed yields the
// same counts on every machine. The one background allocation seen is
// the runtime scavenger's timer growing the processor's timer heap
// while it returns memory freed by earlier set-up (model training),
// which is why the window opens with debug.FreeOSMemory: it leaves the
// scavenger no work. The race detector's runtime allocates
// on its own, so under -race the counts are not the code's: t is
// skipped there instead.
func MeasureAllocs(t TB, warmup func(), op func() bool, between func()) (allocsPerOp, bytesPerOp uint64) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not measured under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if warmup != nil {
		warmup()
	}
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	var allocs, bytes, n uint64
	for {
		runtime.ReadMemStats(&m0)
		more := op()
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
		if !more {
			break
		}
		n++
		if between != nil {
			between()
		}
	}
	if n == 0 {
		return 0, 0
	}
	return (allocs + n - 1) / n, (bytes + n - 1) / n
}

// AllocsPerRun is testing.AllocsPerRun rounded up: it calls f once to
// warm it, then measures runs more calls with MeasureAllocs. Where
// testing.AllocsPerRun divides with integers, and so reads 0 for up to
// runs-1 allocations, a single allocation here reads 1.
func AllocsPerRun(t TB, runs int, f func()) uint64 {
	t.Helper()
	i := 0
	allocs, _ := MeasureAllocs(t, f, func() bool {
		if i == runs {
			return false
		}
		f()
		i++
		return true
	}, nil)
	return allocs
}
