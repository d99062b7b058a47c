package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		for _, n := range []int{0, 1, 3, 64} {
			seen := make([]atomic.Int32, n)
			var badWorker atomic.Bool
			For(workers, n, func(w, i int) {
				if w < 0 || w >= workers {
					badWorker.Store(true)
				}
				seen[i].Add(1)
			})
			if badWorker.Load() {
				t.Fatalf("workers=%d n=%d: worker index out of range", workers, n)
			}
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestForSingleWorkerRunsInline: one worker means no goroutine, so
// items run in index order on the caller.
func TestForSingleWorkerRunsInline(t *testing.T) {
	before := runtime.NumGoroutine()
	var order []int
	For(1, 5, func(w, i int) {
		if g := runtime.NumGoroutine(); g != before {
			t.Errorf("item %d ran with %d goroutines, want %d", i, g, before)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order %v, want ascending", order)
		}
	}
}

func TestWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct{ n, want int }{{0, 1}, {1, 1}, {3, 3}, {100, 4}} {
		if got := Workers(c.n); got != c.want {
			t.Errorf("Workers(%d) = %d at GOMAXPROCS 4, want %d", c.n, got, c.want)
		}
	}
}
