package testutil

import (
	"sync"
	"testing"
)

// fakeTB records failures instead of failing the real test.
type fakeTB struct {
	cleanups []func()
	failed   bool
}

func (f *fakeTB) Helper()               {}
func (f *fakeTB) Cleanup(fn func())     { f.cleanups = append(f.cleanups, fn) }
func (f *fakeTB) Errorf(string, ...any) { f.failed = true }
func (f *fakeTB) Skip(...any)           {}
func (f *fakeTB) runCleanups() {
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
}

func TestCheckGoroutinesPassesWhenBalanced(t *testing.T) {
	ft := &fakeTB{}
	CheckGoroutines(ft)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done() }()
	wg.Wait()
	ft.runCleanups()
	if ft.failed {
		t.Fatal("balanced goroutines reported as a leak")
	}
}

func TestCheckGoroutinesFlagsLeak(t *testing.T) {
	ft := &fakeTB{}
	CheckGoroutines(ft)
	block := make(chan struct{})
	started := make(chan struct{})
	go func() { close(started); <-block }()
	<-started
	ft.runCleanups()
	close(block)
	if !ft.failed {
		t.Fatal("leaked goroutine not flagged")
	}
}
