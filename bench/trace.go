package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Span reps outside the timed phase.
const (
	repSetup  = -1 // set-up: bundle training, corpus recording
	repAttrib = -2 // the serve workloads' single-stream attribution pass
)

// span is one benchmark-owned timing around a call into a layer's public
// function. Times are nanoseconds since the tracer started; parent is -1
// for a top-level span.
type span struct {
	id, parent, rep int32
	name            string
	start, end      int64
}

// tracer keeps spans in a preallocated in-memory slice and writes them
// out when the run ends. The benchmark drives every layer from one
// goroutine, so the open spans form a stack and the innermost open span
// is the parent of the next one. A nil *tracer records nothing, which is
// how the untraced phase runs the same code with tracing off.
type tracer struct {
	t0    time.Time
	rep   int32
	spans []span
	open  []int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) setRep(rep int) {
	if t != nil {
		t.rep = int32(rep)
	}
}

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: parent, rep: t.rep, name: name,
		start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// rename relabels an open span; the fleet's last barrier span becomes
// its report span once Run returns.
func (t *tracer) rename(id int32, name string) {
	if t != nil {
		t.spans[id].name = name
	}
}

// timed runs fn inside a span and returns its wall time in seconds.
func timed(t *tracer, name string, fn func()) float64 {
	id := t.begin(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	t.end(id)
	return d
}

// durations returns the durations of every span with this name, in
// units of the given size in seconds (1e-3 for ms, 1e-6 for µs).
func (t *tracer) durations(name string, unit float64) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)*1e-9/unit)
		}
	}
	return out
}

// selfNS returns the summed self time, in nanoseconds, of the spans with
// this name: each span's duration minus the time its children cover.
func (t *tracer) selfNS(name string) int64 {
	child := make(map[int32]int64)
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var self int64
	for _, s := range t.spans {
		if s.name == name {
			self += s.end - s.start - child[s.id]
		}
	}
	return self
}

// topLevelNS sums the durations of the top-level spans of timed reps.
func (t *tracer) topLevelNS() int64 {
	var sum int64
	for _, s := range t.spans {
		if s.parent < 0 && s.rep >= 0 {
			sum += s.end - s.start
		}
	}
	return sum
}

// write stores the spans as JSON lines: id, parent, name, rep, start_ns,
// end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			ID      int32  `json:"id"`
			Parent  int32  `json:"parent"`
			Name    string `json:"name"`
			Rep     int32  `json:"rep"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{s.id, s.parent, s.name, s.rep, s.start, s.end}); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
