// Package par is the repository's one worker pool: it runs the items
// of an index range on GOMAXPROCS goroutines. Callers that need
// bit-identical results at any worker count give each item its own
// output slot and fold the slots serially afterwards.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the number of workers For should use for n items:
// GOMAXPROCS capped at n, and at least 1.
func Workers(n int) int {
	return max(min(runtime.GOMAXPROCS(0), n), 1)
}

// For runs fn(w, i) for every i in [0, n) on the given number of
// workers and returns when all have finished. Items are handed out in
// index order; w in [0, workers) names the worker running item i, so
// fn may use per-worker state indexed by w. fn must touch only state
// that belongs to its own item or worker. With one worker, or at most
// one item, For runs fn on the calling goroutine and starts none.
func For(workers, n int, fn func(w, i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	workers = min(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
