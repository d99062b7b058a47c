// Package testutil holds small helpers shared by the repo's test
// suites. It must only ever be imported from _test.go files.
package testutil

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
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

// CheckGoroutines records the IDs of the goroutines alive now and
// registers a cleanup that fails the test if any goroutine started
// since is still alive at the end of it. Worker pools exit inside
// Drain/Kill (task channel closed, WaitGroup awaited), so a
// well-behaved test leaves no new goroutine behind; the check allows
// the runtime a few scheduling beats to retire exiting stacks before
// declaring a leak.
//
// Identities, not counts, are compared: a goroutine of an earlier test
// that exits during this one cannot hide a goroutine this one leaked.
//
// Call it first in the test, before anything that spawns goroutines:
//
//	func TestSomething(t *testing.T) {
//		testutil.CheckGoroutines(t)
//		...
//	}
func CheckGoroutines(t TB) {
	t.Helper()
	before := map[uint64]bool{}
	for _, g := range goroutines() {
		before[g.id] = true
	}
	t.Cleanup(func() {
		var leaked []goroutine
		for i := 0; i < 50; i++ {
			leaked = leaked[:0]
			for _, g := range goroutines() {
				if !before[g.id] {
					leaked = append(leaked, g)
				}
			}
			if len(leaked) == 0 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		var stacks []string
		for _, g := range leaked {
			stacks = append(stacks, g.stack)
		}
		t.Errorf("%d goroutines leaked:\n%s", len(leaked), strings.Join(stacks, "\n\n"))
	})
}

// goroutine is one entry of an all-goroutine stack dump.
type goroutine struct {
	id    uint64
	stack string
}

// goroutines parses runtime.Stack's dump of every goroutine. Each
// entry starts with a "goroutine <id> [<state>]:" header line and
// entries are separated by a blank line.
func goroutines() []goroutine {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []goroutine
	for _, entry := range bytes.Split(buf, []byte("\n\n")) {
		header, _, _ := bytes.Cut(entry, []byte("\n"))
		rest, ok := bytes.CutPrefix(header, []byte("goroutine "))
		if !ok {
			continue
		}
		idText, _, _ := bytes.Cut(rest, []byte(" "))
		id, err := strconv.ParseUint(string(idText), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, goroutine{id: id, stack: string(entry)})
	}
	return out
}
