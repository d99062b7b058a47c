package serve

import (
	"fmt"

	"litereconfig/internal/sched"
)

// This file is the board-side half of the crash-recovery layer: between
// rounds a fleet dispatcher snapshots every live stream's durable
// recovery state into Checkpoints (held fleet-side, surviving the
// board), and after a fail-stop board death it Restores each checkpoint
// onto a surviving board. Checkpoints are cut at GoF boundaries — the
// paper's natural reconfiguration points are also the natural
// consistency points — so recovery replays whole GoFs, never partial
// ones. A standalone Server never uses any of it.

// Checkpoint is the durable recovery state of one live stream: enough
// to rebuild the stream on another board and fast-forward it to the
// checkpointed position, losing at most the GoFs executed since the
// checkpoint was cut. It deliberately excludes volatile state that is
// cheaper to re-derive than to ship — the tracker (re-warmed by the
// first post-restore detection), the watchdog ladder and breaker
// (re-engage from realized outcomes), and the WFQ virtual-finish tag
// (a restored stream re-enters WFQ at the destination's current
// virtual time; restoring a stale tag would hand it banked credit —
// the PR 7 lesson). All fields are exported plain data, so the fleet
// store can gob-encode checkpoints as its durability format.
type Checkpoint struct {
	// ID is the stream's fleet-assigned id; Cfg its full submission
	// config (self-contained: video, SLO, class, seeds, fault schedule).
	ID  int
	Cfg StreamConfig

	// Progress as of the checkpoint barrier: frames and completed GoF
	// windows executed, and the stream clock's simulated position.
	Frames    int
	GoFs      int
	SimMS     float64
	GPUBusyMS float64

	// Occ is the last measured GPU occupancy — the restore-time
	// admission estimate, better than the config's cold default.
	Occ float64

	// Scheduling identity and lifetime counters carried across the
	// restore so reports stay honest.
	Class        string
	DegradeLevel int
	Preemptions  int
	Migrations   int
	WaitRounds   int
	PanicsTotal  int
	Recoveries   int

	// FaultCounts is the injector's per-class fired tally at the
	// checkpoint, kept for observability; the restored injector re-fires
	// the same draws over replayed frames (draws are hash-keyed by
	// frame, not sequence position).
	FaultCounts map[string]int

	// AdaptVersion is the champion model version serving the stream at
	// the checkpoint ("" when adaptation is off, "v0" before the first
	// promotion). The fleet's registry mirror resolves it to a warm
	// model bundle at restore time.
	AdaptVersion string
}

// Checkpoints cuts a checkpoint of every live (active or queued)
// stream. Call it only between rounds: streams rest at GoF boundaries
// there, so the clock and stepper positions it reads are consistent.
// The fleet dispatcher calls it at its own barrier, which satisfies
// this by construction.
func (s *Server) Checkpoints() []Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Checkpoint, 0, len(s.active)+len(s.queue))
	for _, st := range s.active {
		out = append(out, st.checkpoint())
	}
	for _, st := range s.queue {
		out = append(out, st.checkpoint())
	}
	return out
}

// checkpoint cuts one stream's recovery state. Caller holds the server
// mutex with no round in flight, so reading the clock and stepper
// directly is safe.
func (st *stream) checkpoint() Checkpoint {
	ck := Checkpoint{
		ID:           st.id,
		Cfg:          st.cfg,
		Frames:       st.stepper.Frames(),
		GoFs:         st.stepper.GoFs(),
		SimMS:        st.clock.Now(),
		GPUBusyMS:    st.clock.GPUBusyMS(),
		Occ:          st.occ,
		Class:        st.className(),
		DegradeLevel: st.snapDegrade,
		Preemptions:  st.preemptions,
		Migrations:   st.migrations,
		WaitRounds:   st.waitRounds,
		PanicsTotal:  st.panicsTotal,
		Recoveries:   st.recoveries,
	}
	if inj := st.stepper.Injector(); inj != nil {
		ck.FaultCounts = inj.Counts()
	}
	if a := st.pipeline.Sched.Adapter(); a != nil {
		ck.AdaptVersion = a.VersionLabel()
	}
	return ck
}

// Restore rebuilds a checkpointed stream on this board after its
// original board fail-stopped: a fresh pipeline (on warm models when
// the fleet's registry mirror resolved the checkpoint's adapted
// champion, else the board's base models) is fast-forwarded to the
// checkpoint position and re-enters admission at the board's current
// WFQ virtual time. Progress past the checkpoint is replayed: the
// injector's draws are hash-keyed by frame, so replayed frames re-fire
// identical faults, and the restored incarnation's decisions are
// stamped with the next recovery generation so they never collide with
// the lost incarnation's trace coordinates. Like Attach, Restore
// bypasses the queue limit — the fleet already owns admission, and
// bouncing a recovery off backpressure would lose the stream.
func (s *Server) Restore(ck Checkpoint, warm *sched.Models) (*Stream, error) {
	if err := validateStreamConfig(ck.Cfg); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: server is draining, not accepting streams")
	}
	s.reserved++
	if ck.ID >= s.nextID {
		s.nextID = ck.ID + 1
	}
	s.mu.Unlock()

	st, err := s.buildStreamWith(ck.ID, ck.Cfg, warm, ck.Recoveries+1)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitBuiltLocked(err); err != nil {
		return nil, err
	}
	// Fast-forward to the checkpointed position. The stepper opens a
	// clean latency window at the restored clock time, so the first
	// post-restore GoF is not billed for pre-crash time.
	st.clock.Restore(ck.SimMS, ck.GPUBusyMS)
	st.stepper.Resume(ck.Frames, ck.GoFs)
	st.lastNow, st.lastGPU = st.clock.Now(), st.clock.GPUBusyMS()
	st.lastFrames = ck.Frames
	st.lastGoFs = ck.GoFs
	if ck.Occ > 0 {
		st.occ = ck.Occ
	}
	st.preemptions = ck.Preemptions
	st.migrations = ck.Migrations
	st.waitRounds = ck.WaitRounds
	st.panicsTotal = ck.PanicsTotal
	st.recoveries = ck.Recoveries + 1
	st.resumeFrame = ck.Frames
	s.enqueueLocked(st)
	return &Stream{st: st}, nil
}
