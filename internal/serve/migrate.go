package serve

import (
	"fmt"

	"litereconfig/internal/mbek"
)

// This file is the board-side API of the fleet layer: a dispatcher
// driving several Servers as boards uses these hooks to allocate
// globally unique stream ids, step boards round by round, observe
// occupancy and health between rounds, and move live streams between
// boards. A standalone Server never calls any of it.

// Prepare submits a stream under a caller-assigned id. The fleet
// dispatcher allocates ids globally so decision traces from streams on
// different boards never collide in the shared observer. The server's
// own id counter advances past the given id, so Prepare and Submit can
// be mixed without collisions.
func (s *Server) Prepare(id int, cfg StreamConfig) (*Stream, error) {
	if err := validateStreamConfig(cfg); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: server is draining, not accepting streams")
	}
	if len(s.queue)+s.reserved >= s.opts.QueueLimit {
		err := s.rejectLocked(cfg)
		s.mu.Unlock()
		return nil, err
	}
	s.reserved++
	if id >= s.nextID {
		s.nextID = id + 1
	}
	s.mu.Unlock()

	st, err := s.buildStream(id, cfg)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitBuiltLocked(err); err != nil {
		return nil, err
	}
	s.queue = append(s.queue, st)
	return &Stream{st: st}, nil
}

// StepRound advances the board by exactly one round (admission, one
// RoundMS of every active stream on the worker pool, barrier). It
// reports false when the board had nothing to run. The fleet dispatcher
// drives boards with StepRound between its own barriers; Drain remains
// the single-board entry point and runs the same rounds in a loop.
func (s *Server) StepRound() bool { return s.runRound() }

// Occupancy returns the aggregate measured GPU occupancy of the active
// streams and the aggregate estimated occupancy of the queued ones.
func (s *Server) Occupancy() (active, queued float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.active {
		active += st.occ
	}
	for _, st := range s.queue {
		queued += st.occ
	}
	return active, queued
}

// Counts returns the board's stream population: active, queued and
// finished (retired) streams.
func (s *Server) Counts() (active, queued, finished int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active), len(s.queue), len(s.finished)
}

// Rounds returns the number of board rounds run so far.
func (s *Server) Rounds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds
}

// Panics returns the recovered worker panics across all streams the
// board has run — the fleet's board-health signal.
func (s *Server) Panics() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.panicsTotal
}

// StreamState is a between-rounds snapshot of one live (active or
// queued) stream, exposed for fleet placement and migration decisions.
type StreamState struct {
	ID           int
	Name         string
	Class        string
	Tenant       string
	SLO          float64
	Weight       int     // WFQ class weight on this board
	Occ          float64 // measured GPU occupancy (estimate while queued)
	Health       Health
	DegradeLevel int // scheduler's degradation rung as of the last barrier
	Frames       int // frames processed as of the last barrier
	GoFs         int // completed GoF windows as of the last barrier
	Panics       int // recovered panics on this board
	Migrations   int // lifetime board hand-offs
	Preemptions  int // lifetime admission evictions
	Queued       bool
}

// StreamStates snapshots the board's live streams (active first, then
// queued, both in order). Every field it reads is barrier-side state
// guarded by the server mutex — frame and degradation progress are the
// snapshots taken at the last round barrier, never the worker-side
// counters a round mutates in flight — so the method is safe to call at
// any time, though mid-round callers see the previous barrier's view.
func (s *Server) StreamStates() []StreamState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StreamState, 0, len(s.active)+len(s.queue))
	snap := func(st *stream, queued bool) StreamState {
		return StreamState{
			ID:           st.id,
			Name:         st.cfg.Name,
			Class:        st.className(),
			Tenant:       st.cfg.Tenant,
			SLO:          st.cfg.SLO,
			Weight:       st.weight,
			Occ:          st.occ,
			Health:       st.health,
			DegradeLevel: st.snapDegrade,
			Frames:       st.lastFrames,
			GoFs:         st.lastGoFs,
			Panics:       st.panics,
			Migrations:   st.migrations,
			Preemptions:  st.preemptions,
			Queued:       queued,
		}
	}
	for _, st := range s.active {
		out = append(out, snap(st, false))
	}
	for _, st := range s.queue {
		out = append(out, snap(st, true))
	}
	return out
}

// Occupancies writes every live stream's measured occupancy (its
// estimate while queued) into occ, keyed by stream id, in StreamStates
// order: the one snapshot field a per-barrier caller needs, without
// building the snapshot. Like StreamStates it is safe to call at any
// time.
func (s *Server) Occupancies(occ map[int]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.active {
		occ[st.id] = st.occ
	}
	for _, st := range s.queue {
		occ[st.id] = st.occ
	}
}

// Detached is a live stream lifted off its board mid-run: pipeline,
// clock, kernel and tracker state intact, resting at a GoF boundary.
// Exactly one of Attach (on another board) or Retire consumes it.
type Detached struct {
	st   *stream
	from *Server
}

// ID returns the stream's fleet-assigned id.
func (d *Detached) ID() int { return d.st.id }

// Name returns the stream's label.
func (d *Detached) Name() string { return d.st.cfg.Name }

// SLO returns the stream's latency objective.
func (d *Detached) SLO() float64 { return d.st.cfg.SLO }

// Occ returns the stream's last measured GPU occupancy.
func (d *Detached) Occ() float64 { return d.st.occ }

// Branch returns the kernel's current execution branch — the "from"
// side of the migration cost (warming the destination detector is
// charged like a branch switch plus the model clone).
func (d *Detached) Branch() mbek.Branch { return d.st.kernel.Branch() }

// Detach lifts the stream off the board between rounds. Its fired-fault
// counts are exported under this board's label first, so a later export
// on the destination board only covers faults fired there. Detaching a
// queued stream is allowed (evacuating a dead board's queue).
func (s *Server) Detach(h *Stream) (*Detached, error) {
	if h == nil || h.st == nil {
		return nil, fmt.Errorf("serve: nil stream handle")
	}
	st := h.st
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.srv != s {
		return nil, fmt.Errorf("serve: stream %q is not on this board", st.cfg.Name)
	}
	for i, a := range s.active {
		if a == st {
			s.active = append(s.active[:i:i], s.active[i+1:]...)
			s.pruneWFQLocked()
			st.exportFaultCounts()
			return &Detached{st: st, from: s}, nil
		}
	}
	for i, q := range s.queue {
		if q == st {
			s.queue = append(s.queue[:i:i], s.queue[i+1:]...)
			s.pruneWFQLocked()
			st.exportFaultCounts()
			return &Detached{st: st, from: s}, nil
		}
	}
	return nil, fmt.Errorf("serve: stream %q is not live (already finished?)", st.cfg.Name)
}

// Attach lands a detached stream on this board, charging migrationMS of
// hand-off cost (model clone plus detector warm-up, in device
// milliseconds) to the stream's clock before it re-enters admission.
// Migrated streams bypass the queue limit: the fleet already owns
// admission, and bouncing an evacuation off backpressure would strand
// the stream.
func (s *Server) Attach(d *Detached, migrationMS float64) (*Stream, error) {
	if d == nil || d.st == nil {
		return nil, fmt.Errorf("serve: nil detached stream")
	}
	st := d.st
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		// Not consumed: the caller still holds a live Detached and can
		// try another board or Retire it with a proper report row.
		return nil, fmt.Errorf("serve: server is draining, not accepting streams")
	}
	d.st = nil // consume: a Detached attaches or retires exactly once
	st.clock.ChargeExact("migrate", migrationMS)
	st.rebind(s)
	s.enqueueLocked(st)
	return &Stream{st: st}, nil
}

// Retire finalizes a detached stream that no board can take: it is
// quarantined into the report of the board it was detached from, and
// marked fleet-retired so conservation accounting counts it in the
// Retired bucket rather than Completed.
func (d *Detached) Retire(reason string) {
	if d == nil || d.st == nil {
		return
	}
	st, from := d.st, d.from
	d.st = nil
	from.mu.Lock()
	defer from.mu.Unlock()
	st.fleetRetired = true
	from.quarantineLocked(st, reason)
}
