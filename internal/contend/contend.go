// Package contend implements the contention generator (CG) of Sec. 6: a
// stand-in for co-located applications competing for the mobile GPU. The
// paper's CG is tunable from 0% to 99% GPU contention; it evaluates the
// two representative levels 0% and 50%.
//
// A Generator maps a frame index to a contention level; the harness feeds
// that level into the latency clock before each frame. Fixed generators
// reproduce the paper's evaluation; Phased and Walk generators exercise
// the scheduler's reaction to contention changes (examples/contention).
package contend

import (
	"fmt"
	"math/rand"
	"sync"

	"litereconfig/internal/fastrand"
)

// Generator yields the GPU contention level (in [0, 0.99]) in effect at a
// given frame index.
type Generator interface {
	// Level returns the contention level at the given frame.
	Level(frame int) float64
	// Name identifies the generator in logs and tables.
	Name() string
}

// Fixed holds contention constant, like the paper's `LiteReconfig_CG.py
// --GPU <pct>`.
type Fixed struct{ G float64 }

// Level implements Generator.
func (f Fixed) Level(int) float64 { return clamp(f.G) }

// Name implements Generator.
func (f Fixed) Name() string { return fmt.Sprintf("fixed%.0f%%", clamp(f.G)*100) }

// Phase is one segment of a phased schedule.
type Phase struct {
	Frames int     // duration of the phase in frames
	G      float64 // contention level during the phase
}

// Phased cycles through a sequence of phases, modeling background
// applications that start and stop.
type Phased struct{ Phases []Phase }

// Level implements Generator.
func (p Phased) Level(frame int) float64 {
	total := 0
	for _, ph := range p.Phases {
		total += ph.Frames
	}
	if total <= 0 || frame < 0 {
		return 0
	}
	pos := frame % total
	for _, ph := range p.Phases {
		if pos < ph.Frames {
			return clamp(ph.G)
		}
		pos -= ph.Frames
	}
	return 0
}

// Name implements Generator.
func (p Phased) Name() string { return fmt.Sprintf("phased%d", len(p.Phases)) }

// Walk is a seeded bounded random walk — a stress generator for tests and
// ablations, representing erratically varying background load.
type Walk struct {
	Seed int64
	Step float64 // per-frame step magnitude; defaults to 0.02
	Max  float64 // upper bound; defaults to 0.8

	// mu guards the lazy memoization: one Walk may be shared across
	// streams (and therefore goroutines) as an external contention
	// source, and an unsynchronized append both races and can hand a
	// caller a stale backing array.
	mu     sync.Mutex
	levels []float64
	rng    *rand.Rand // reseeded per step, under mu
}

// Level implements Generator. Levels are generated lazily and memoized so
// repeated queries are consistent; the memo is mutex-guarded, so a Walk
// shared by concurrently-served streams is safe.
func (w *Walk) Level(frame int) float64 {
	if frame < 0 {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	step := w.Step
	if step == 0 {
		step = 0.02
	}
	max := w.Max
	if max == 0 {
		max = 0.8
	}
	if len(w.levels) == 0 {
		w.levels = append(w.levels, 0)
	}
	for len(w.levels) <= frame {
		// One RNG per step, seeded by the step index, so levels are
		// identical whether queried in order or at random.
		if w.rng == nil {
			w.rng = rand.New(fastrand.New(0))
		}
		rng := w.rng
		rng.Seed(w.Seed + int64(len(w.levels)))
		prev := w.levels[len(w.levels)-1]
		next := prev + (rng.Float64()*2-1)*step
		if next < 0 {
			next = 0
		}
		if next > max {
			next = max
		}
		w.levels = append(w.levels, next)
	}
	return clamp(w.levels[frame])
}

// Name implements Generator.
func (w *Walk) Name() string { return "walk" }

// Trace replays a recorded per-frame contention trace — e.g. one logged
// from a real co-located workload or exported from a prior run. Levels
// are clamped like Fixed/Phased; frames past the end of the trace hold
// the last recorded level (an empty trace reads as zero contention).
type Trace struct{ Levels []float64 }

// Level implements Generator.
func (t Trace) Level(frame int) float64 {
	if len(t.Levels) == 0 || frame < 0 {
		return 0
	}
	if frame >= len(t.Levels) {
		frame = len(t.Levels) - 1
	}
	return clamp(t.Levels[frame])
}

// Name implements Generator.
func (t Trace) Name() string { return fmt.Sprintf("trace%d", len(t.Levels)) }

// Coupled derives a stream's contention from the GPU occupancy of the
// *other* streams sharing the board: in the multi-stream serving regime
// the co-located applications are not a synthetic generator but the
// sibling video pipelines themselves. The serving engine installs a
// Source reporting the foreign occupancy (sum of the other streams'
// GPU-busy fractions, normalized by the board's GPU slots).
type Coupled struct {
	// Source reports the aggregate foreign occupancy at a frame. Values
	// may exceed 1 on an oversubscribed board; the resulting level is
	// clamped to the generator range [0, 0.99].
	Source func(frame int) float64
	// Alpha scales occupancy into contention. Zero means 1 (identity); a
	// negative value means an explicit zero (foreign occupancy ignored,
	// only Floor applies).
	Alpha float64
	// Floor is a base contention level added before clamping, modeling
	// load external to the served streams.
	Floor float64
	// FloorSource, when non-nil, supplies a per-frame external floor
	// (e.g. a recorded Trace) instead of the constant Floor, which is
	// then ignored.
	FloorSource Generator
}

// Level implements Generator.
func (c Coupled) Level(frame int) float64 {
	alpha := c.Alpha
	if alpha == 0 {
		alpha = 1
	} else if alpha < 0 {
		alpha = 0
	}
	floor := c.Floor
	if c.FloorSource != nil {
		floor = c.FloorSource.Level(frame)
	}
	level := clamp(floor)
	if c.Source != nil {
		occ := c.Source(frame)
		if occ > 0 {
			level += alpha * occ
		}
	}
	return clamp(level)
}

// Name implements Generator.
func (c Coupled) Name() string { return "coupled" }

func clamp(g float64) float64 {
	if g < 0 {
		return 0
	}
	if g > 0.99 {
		return 0.99
	}
	return g
}
