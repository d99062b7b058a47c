// Package testutil holds small helpers shared by the repo's test
// suites. It must only ever be imported from _test.go files.
package testutil

import (
	"runtime"
	"time"
)

// TB is the subset of testing.TB the helpers need, kept narrow so the
// package has no import cycle with the suites using it.
type TB interface {
	Helper()
	Cleanup(func())
	Errorf(format string, args ...any)
	Skip(args ...any)
}

// CheckGoroutines snapshots the current goroutine count and registers a
// cleanup that fails the test if the count has not returned to the
// baseline by the end of it. Worker pools exit inside Drain/Kill (task
// channel closed, WaitGroup awaited), so a well-behaved test ends at
// its starting count; the check allows the runtime a few scheduling
// beats to retire exiting stacks before declaring a leak.
//
// Call it first in the test, before anything that spawns goroutines:
//
//	func TestSomething(t *testing.T) {
//		testutil.CheckGoroutines(t)
//		...
//	}
func CheckGoroutines(t TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		for i := 0; i < 50; i++ {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
	})
}
