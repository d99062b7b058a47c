// Package fleet is the multi-board dispatcher: it fronts N simulated
// boards — each a serve.Server with its own hardware profile, coupling
// and fault environment — with one shared admission queue, and places
// each incoming stream on the board where the scheduler's predicted
// best feasible branch maximizes accuracy under the stream's SLO
// (cost- and content-aware placement, the fleet-level analogue of the
// paper's per-GoF Eq. 3).
//
// The dispatcher advances the fleet in barriers: between barriers every
// board runs exactly one round in parallel; at the barrier the
// dispatcher — single-threaded — re-reads board occupancy and health,
// places queued streams, and migrates live streams off boards that have
// been quarantined (too many worker panics) or whose occupancy-coupled
// contention has made a stream's SLO infeasible. A migration detaches
// the stream at a GoF boundary with its pipeline, clock and tracker
// state intact, charges a hand-off cost (model clone plus detector
// warm-up, the fleet analogue of the paper's C(b0, b)), and re-admits
// it on the destination board. Because all cross-board decisions happen
// at the single-threaded barrier with deterministic tie-breaking, a
// fixed-seed fleet run yields byte-identical fleet traces.
package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"litereconfig/internal/adapt"
	"litereconfig/internal/ckpt"
	"litereconfig/internal/fault"
	"litereconfig/internal/glm"
	"litereconfig/internal/obs"
	"litereconfig/internal/sched"
	"litereconfig/internal/serve"
	"litereconfig/internal/simlat"
)

// Defaults for Options fields left zero.
const (
	// DefaultQueueLimit bounds the fleet-wide admission queue.
	DefaultQueueLimit = 64
	// DefaultBoardPanicLimit is how many recovered worker panics a board
	// may accumulate before the fleet quarantines it and evacuates its
	// streams.
	DefaultBoardPanicLimit = 3
	// DefaultHysteresis is how many consecutive barriers a stream's SLO
	// must look infeasible on its board before the fleet migrates it.
	DefaultHysteresis = 2
	// DefaultCloneMS is the model-clone share of the migration cost, in
	// device milliseconds; the detector warm-up share comes from the
	// switching-cost model.
	DefaultCloneMS = 25
	// DefaultMaxMigrations caps per-stream hand-offs so an unplaceable
	// stream cannot ping-pong between boards forever.
	DefaultMaxMigrations = 3
	// DefaultSafetyFactor shrinks the SLO to a planning budget, matching
	// the stream scheduler's own safety factor.
	DefaultSafetyFactor = 0.88
	// DefaultTickMS is the simulated milliseconds of fleet virtual time
	// one barrier advances when driving an open-loop Source — the board
	// round length, so arrivals land at round boundaries.
	DefaultTickMS = 200
	// DefaultCheckpointInterval is the fleet barrier period of full
	// checkpoint sweeps when fail-stop faults are scheduled and the
	// caller left CheckpointInterval zero.
	DefaultCheckpointInterval = 4
)

// Source supplies open-loop stream arrivals to the fleet. The
// dispatcher polls it at every barrier with its virtual time (barrier
// index times TickMS); implementations must be deterministic for a
// fixed seed — internal/workload.Schedule is the canonical one.
type Source interface {
	// Take returns the configs of all arrivals due at or before nowMS,
	// in arrival order, consuming them.
	Take(nowMS float64) []serve.StreamConfig
	// Exhausted reports that no further arrivals will ever come.
	Exhausted() bool
}

// BoardConfig describes one board of the fleet. Zero fields take the
// serving engine's defaults.
type BoardConfig struct {
	// Name labels the board in reports, metrics and traces. Default
	// "board-<index>".
	Name string
	// Device is the board's hardware profile. Default TX2.
	Device simlat.Device
	// GPUSlots, MaxOccupancy, Coupling, QueueLimit, RoundMS, RetryLimit
	// and StallRounds configure the board's serving engine (see
	// serve.Options).
	GPUSlots     int
	MaxOccupancy float64
	Coupling     float64
	QueueLimit   int
	RoundMS      float64
	RetryLimit   int
	StallRounds  int
	// Faults is the board-scoped fault environment: every stream served
	// by this board inherits it unless the stream carries its own fault
	// config or plan. A migrated stream sheds the old board's faults and
	// inherits the destination's.
	Faults *fault.Config
}

// Options configures a Fleet.
type Options struct {
	// Models is the trained scheduler bundle. Every stream gets its own
	// clone (via its board); the fleet keeps one more clone for placement
	// scoring.
	Models *sched.Models
	// Boards describes the fleet's boards. At least one is required.
	Boards []BoardConfig
	// QueueLimit bounds the fleet-wide admission queue; submissions
	// beyond it are rejected (backpressure). Default 64.
	QueueLimit int
	// BoardPanicLimit quarantines a board once its recovered worker
	// panics reach this count. Default 3.
	BoardPanicLimit int
	// Hysteresis is the number of consecutive infeasible barriers before
	// an SLO-driven migration. Default 2.
	Hysteresis int
	// CloneMS is the model-clone share of the migration cost. Default 25.
	CloneMS float64
	// MaxMigrations caps per-stream board hand-offs. Default 3.
	MaxMigrations int
	// SafetyFactor shrinks SLOs to planning budgets. Default 0.88.
	SafetyFactor float64
	// DisableMigration turns off live migration (both SLO-driven and
	// board-quarantine evacuation): streams stay where they were placed,
	// which is the ablation baseline the fleet report compares against.
	DisableMigration bool
	// Adapt enables online model adaptation on every board: each board
	// gets its own model registry, every stream its own adapter (see
	// serve.Options.Adapt). A migrating stream keeps its learned
	// champion and re-points its rollout at the destination board's
	// registry, so learned state survives hand-offs.
	Adapt *adapt.Config
	// AdaptStagger stages the rollout board by board: only the first
	// board may promote challengers at first, and each next board's
	// promotion gate opens at a fleet barrier once the previous board's
	// registry has recorded at least one promotion — a canary sequence
	// across the fleet. Off, every board may promote from the start.
	AdaptStagger bool
	// Source supplies open-loop stream arrivals: the dispatcher polls it
	// at every barrier and feeds due arrivals into the fleet queue,
	// recording "arrive" (and terminal "depart") trace events. Nil keeps
	// the closed-loop Submit-then-Run regime.
	Source Source
	// TickMS is the simulated milliseconds of fleet virtual time one
	// barrier advances when polling Source. Default 200.
	TickMS float64
	// Admission selects every board's queue discipline: FIFO (default)
	// or weighted-fair queueing across SLO classes (see serve.Options).
	Admission serve.AdmissionPolicy
	// ClassWeights maps SLO class names to WFQ weights (default 1).
	// The same weights drive board admission, board preemption ranking
	// and tier-aware fleet placement order.
	ClassWeights map[string]int
	// Preempt enables barrier-time preemption on every board: lowest-
	// weight streams are evicted when a higher tier's SLO is infeasible
	// under board occupancy (see serve.Options.Preempt). PreemptLimit is
	// the per-stream eviction budget (0 = default, negative = retire on
	// first eviction).
	Preempt      bool
	PreemptLimit int
	// Observer is the shared observability sink for the whole fleet:
	// decision traces and metrics from every board land here with board
	// labels, plus the fleet's own placement/migration trace.
	Observer *obs.Observer

	// CheckpointInterval is the fleet barrier period of full checkpoint
	// sweeps: every interval barriers each responsive board serializes
	// per-stream recovery state into the fleet-held store (new streams
	// are checkpointed on their first barrier regardless). Zero means
	// auto — DefaultCheckpointInterval when any board schedules a
	// fail-stop fault (crash or blackout), off otherwise, so runs
	// without board faults pay nothing. Negative disables checkpointing
	// outright even under faults (crashed streams are then retired, not
	// restored — the ablation the chaos tests quantify).
	CheckpointInterval int
	// LeaseBarriers, RecoveryRetries and RecoveryBackoff tune the
	// virtual-time failure detector (see ckpt.DetectorConfig: the
	// heartbeat lease, the probe budget a suspect board gets before it
	// is declared dead, and the base probe backoff in barriers). Zero
	// fields take the ckpt defaults.
	LeaseBarriers   int
	RecoveryRetries int
	RecoveryBackoff int
	// RecoverySeed drives the detector's probe-backoff jitter; fixed
	// seeds give byte-identical recovery schedules. Default 1.
	RecoverySeed int64
	// ReplayTrace enriches every board's recorded decisions with the
	// scheduler input payload for offline counterfactual replay (see
	// serve.Options.ReplayTrace). Off by default.
	ReplayTrace bool
	// RiskQuantile enables probabilistic SLO admission fleet-wide: it is
	// forwarded to every board (serve.Options.RiskQuantile → each
	// stream's scheduler), and fleet placement switches from ranking
	// boards by predicted mean accuracy/latency to ranking them by the
	// stream's SLO-attainment probability there — the chance the chosen
	// branch's lognormal latency lands within the planning budget under
	// the board's contention. Zero keeps the legacy mean-based placement
	// byte-identical. Must be in [0, 1).
	RiskQuantile float64
}

func (o Options) withDefaults() Options {
	if o.QueueLimit <= 0 {
		o.QueueLimit = DefaultQueueLimit
	}
	if o.BoardPanicLimit <= 0 {
		o.BoardPanicLimit = DefaultBoardPanicLimit
	}
	if o.Hysteresis <= 0 {
		o.Hysteresis = DefaultHysteresis
	}
	if o.CloneMS == 0 {
		o.CloneMS = DefaultCloneMS
	}
	if o.MaxMigrations == 0 {
		o.MaxMigrations = DefaultMaxMigrations
	}
	if o.SafetyFactor <= 0 {
		o.SafetyFactor = DefaultSafetyFactor
	}
	if o.TickMS <= 0 {
		o.TickMS = DefaultTickMS
	}
	if o.RecoverySeed == 0 {
		o.RecoverySeed = 1
	}
	return o
}

// board is one fleet board and its dispatcher-side health state.
type board struct {
	idx  int
	name string
	srv  *serve.Server
	opts serve.Options // effective serving options, for scoring

	quarantined bool
	degraded    bool
	// crashed marks a fail-stop board: its in-memory state is gone (the
	// scheduled crash was enacted, or the lease detector declared it
	// dead and the fleet fenced it). A crashed board never beats, is
	// never stepped and never takes placements again.
	crashed bool

	// adaptGate is the board's promotion gate (nil when adaptation is
	// off); the dispatcher opens it at a barrier during staged rollout.
	adaptGate *atomic.Bool
}

// waiting is a stream in the fleet admission queue. Besides fresh
// submissions (only id/cfg/prof set), the queue carries two kinds of
// already-admitted re-entrants, which bypass the fleet queue limit and
// are never re-counted as arrivals: a live stream evacuated off a
// quarantined board with no immediate destination (det != nil), and a
// checkpointed stream whose board died with no survivor able to take
// it right away (ck != nil).
type waiting struct {
	id    int
	cfg   serve.StreamConfig
	prof  []branchEst // per-branch placement inputs from frame 0's light features
	waits int
	det   *serve.Detached
	ck    *ckpt.Entry
}

// tracked is a live placed stream the dispatcher follows across boards.
type tracked struct {
	id         int
	handle     *serve.Stream
	board      *board
	cfg        serve.StreamConfig
	prof       []branchEst
	infeasible int // consecutive barriers the SLO looked infeasible
	migrations int
}

// Fleet dispatches streams over several boards. Submit is safe for
// concurrent use until Run is called; Run drives the fleet to
// completion and may be called once.
type Fleet struct {
	opts Options
	obsv *obs.Observer
	// models is the fleet's own clone of the bundle. Its inference
	// scratch makes it single-user; the barrier goroutine uses it to
	// profile each stream at intake and to price migration warm-ups.
	// Nothing mutates its weights during a run, which is what lets a
	// stream's branch profile and the per-branch risk terms below be
	// computed once.
	models *sched.Models
	boards []*board
	// risk holds each branch's risk-aware placement terms at
	// Options.RiskQuantile; nil under mean placement.
	risk []branchRisk
	// scrLight and scrAcc are profile's scratch: a stream's light
	// vector and its per-branch accuracy row.
	scrLight, scrAcc []float64

	mu         sync.Mutex
	nextID     int
	queue      []*waiting
	rejected   int
	rejByClass map[string]int // terminal rejections per SLO class
	arrivals   int            // open-loop arrivals taken from Source
	arrByClass map[string]int
	running    bool

	// Run-goroutine state (no lock needed once running).
	live    []*tracked // sorted by id
	barrier int
	placed  int
	migrs   int
	retired int
	// adaptFrontier indexes the first board whose promotion gate is
	// still closed (== len(boards) once rollout has reached every
	// board; 0 only before Run when staging is on).
	adaptFrontier int
	// occs is checkMigrations' stream-id → occupancy buffer, refilled
	// at every barrier.
	occs map[int]float64

	// Crash-recovery state (nil/zero when no board schedules fail-stop
	// faults and CheckpointInterval is unset, so fault-free runs take
	// none of these paths). All of it is barrier-side, single-threaded.
	store      *ckpt.Store    // fleet-held per-stream checkpoints
	det        *ckpt.Detector // virtual-time failure detector
	ckInterval int            // full-sweep period in barriers; 0 = checkpointing off
	beats      map[string]bool
	lastGoFs   map[int]int // GoFs per stream as of its board's last beat
	mirrored   map[string]bool
	deaths     int
	recoveries int
	replayed   int            // GoFs replayed across all restores
	retByClass map[string]int // rowless retired (unrestorable) per class

	met struct {
		placements  *obs.Counter
		migrations  *obs.Counter
		retired     *obs.Counter
		rejections  *obs.Counter
		arrivalsCtr *obs.Counter
		departs     *obs.Counter
		barriers    *obs.Counter
		recoveries  *obs.Counter
		replayed    *obs.Counter
		boardDeaths *obs.Counter
		boards      *obs.Gauge
		boardsQuar  *obs.Gauge
		queueDepth  *obs.Gauge
		liveGauge   *obs.Gauge
		adaptBoards *obs.Gauge
	}
}

// New builds a fleet: one serving engine per board, all sharing the
// observer, plus the fleet's private scoring clone of the models.
func New(opts Options) (*Fleet, error) {
	if opts.Models == nil {
		return nil, fmt.Errorf("fleet: models are required")
	}
	if len(opts.Boards) == 0 {
		return nil, fmt.Errorf("fleet: at least one board is required")
	}
	if opts.RiskQuantile < 0 || opts.RiskQuantile >= 1 {
		return nil, fmt.Errorf("fleet: RiskQuantile must be in [0, 1), got %v", opts.RiskQuantile)
	}
	opts = opts.withDefaults()
	models, err := opts.Models.Clone()
	if err != nil {
		return nil, fmt.Errorf("fleet: cloning scoring models: %w", err)
	}
	f := &Fleet{opts: opts, obsv: opts.Observer, models: models, occs: map[int]float64{}}
	// A quantile at or below the median (z ≤ 0), the default 0 included,
	// places on the mean.
	if z := glm.NormalQuantile(opts.RiskQuantile); z > 0 {
		f.risk = make([]branchRisk, len(models.Branches))
		for bi := range f.risk {
			f.risk[bi] = newBranchRisk(models.QuantileFactor(bi, z), models.LatLogStd(bi))
		}
	}
	seen := map[string]bool{}
	for i, bc := range opts.Boards {
		if bc.Name == "" {
			bc.Name = fmt.Sprintf("board-%d", i)
		}
		if seen[bc.Name] {
			return nil, fmt.Errorf("fleet: duplicate board name %q", bc.Name)
		}
		seen[bc.Name] = true
		// Per-board adaptation plumbing: each board gets its own model
		// registry (the server creates it) behind its own promotion
		// gate. Under staged rollout only board 0 starts enabled; the
		// barrier loop opens the rest as promotions land.
		var gate *atomic.Bool
		if opts.Adapt != nil {
			gate = new(atomic.Bool)
			gate.Store(!opts.AdaptStagger || i == 0)
		}
		var boardAdapt *adapt.Config
		if opts.Adapt != nil {
			ac := *opts.Adapt
			ac.Registry = nil // one registry per board, server-created
			ac.Gate = gate
			boardAdapt = &ac
		}
		srv, err := serve.New(serve.Options{
			Models:       opts.Models,
			Device:       bc.Device,
			GPUSlots:     bc.GPUSlots,
			MaxOccupancy: bc.MaxOccupancy,
			Coupling:     bc.Coupling,
			QueueLimit:   bc.QueueLimit,
			RoundMS:      bc.RoundMS,
			RetryLimit:   bc.RetryLimit,
			StallRounds:  bc.StallRounds,
			Board:        bc.Name,
			Faults:       bc.Faults,
			Observer:     opts.Observer,
			Adapt:        boardAdapt,
			Admission:    opts.Admission,
			ClassWeights: opts.ClassWeights,
			Preempt:      opts.Preempt,
			PreemptLimit: opts.PreemptLimit,
			SafetyFactor: opts.SafetyFactor,
			ReplayTrace:  opts.ReplayTrace,
			RiskQuantile: opts.RiskQuantile,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: board %q: %w", bc.Name, err)
		}
		f.boards = append(f.boards, &board{
			idx: i, name: bc.Name, srv: srv, opts: srv.Options(),
			adaptGate: gate,
		})
	}
	if opts.Adapt != nil {
		f.adaptFrontier = len(f.boards)
		if opts.AdaptStagger {
			f.adaptFrontier = 1
		}
	}
	// Crash-recovery plumbing exists only when it can matter: a board
	// schedules a fail-stop fault, or the caller asked for checkpoints
	// explicitly. Fault-free fleets skip every recovery code path.
	failStop := false
	for _, bc := range opts.Boards {
		if bc.Faults != nil && (bc.Faults.CrashRound > 0 || bc.Faults.BlackoutRound > 0) {
			failStop = true
			break
		}
	}
	if failStop || opts.CheckpointInterval > 0 {
		switch {
		case opts.CheckpointInterval > 0:
			f.ckInterval = opts.CheckpointInterval
		case opts.CheckpointInterval == 0:
			f.ckInterval = DefaultCheckpointInterval
		}
		f.store = ckpt.NewStore()
		names := make([]string, len(f.boards))
		for i, b := range f.boards {
			names[i] = b.name
		}
		f.det = ckpt.NewDetector(ckpt.DetectorConfig{
			LeaseBarriers: opts.LeaseBarriers,
			MaxRetries:    opts.RecoveryRetries,
			BackoffBase:   opts.RecoveryBackoff,
			Seed:          opts.RecoverySeed,
		}, names)
		f.beats = make(map[string]bool, len(f.boards))
		f.lastGoFs = map[int]int{}
		f.mirrored = map[string]bool{}
	}
	if r := opts.Observer.Registry(); r != nil {
		f.met.placements = r.Counter("fleet_placements_total")
		f.met.migrations = r.Counter("fleet_migrations_total")
		f.met.retired = r.Counter("fleet_retired_total")
		f.met.rejections = r.Counter("fleet_rejections_total")
		f.met.arrivalsCtr = r.Counter("fleet_arrivals_total")
		f.met.departs = r.Counter("fleet_departures_total")
		f.met.barriers = r.Counter("fleet_barriers_total")
		f.met.recoveries = r.Counter("fleet_recoveries_total")
		f.met.replayed = r.Counter("fleet_replayed_gofs_total")
		f.met.boardDeaths = r.Counter("fleet_board_deaths_total")
		f.met.boards = r.Gauge("fleet_boards")
		f.met.boardsQuar = r.Gauge("fleet_boards_quarantined")
		f.met.queueDepth = r.Gauge("fleet_queue_depth")
		f.met.liveGauge = r.Gauge("fleet_live_streams")
		f.met.adaptBoards = r.Gauge("fleet_adapt_boards_enabled")
	}
	f.met.boards.Set(float64(len(f.boards)))
	if opts.Adapt != nil {
		f.met.adaptBoards.Set(float64(f.adaptFrontier))
	}
	return f, nil
}

// Submit enqueues one stream for fleet placement. It returns the
// fleet-assigned stream id, or an error when the fleet queue is full
// (backpressure) or the config is invalid. Content features of the
// stream's first frame are extracted and every branch is priced for them
// here, once; that profile is reused for every placement decision the
// stream is ever part of.
func (f *Fleet) Submit(cfg serve.StreamConfig) (int, error) {
	if cfg.Video == nil {
		return 0, fmt.Errorf("fleet: stream needs a video")
	}
	if cfg.SLO <= 0 {
		return 0, fmt.Errorf("fleet: stream needs a positive SLO")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.running {
		return 0, fmt.Errorf("fleet: already running, not accepting streams")
	}
	f.countArrivalLocked(cfg)
	if len(f.queue) >= f.opts.QueueLimit {
		f.countRejectionLocked(cfg)
		return 0, fmt.Errorf("fleet: %w (%d streams), stream %q refused",
			serve.ErrQueueFull, f.opts.QueueLimit, cfg.Name)
	}
	id := f.nextID
	f.nextID++
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("stream-%d", id)
	}
	f.queue = append(f.queue, &waiting{id: id, cfg: cfg, prof: f.profile(cfg)})
	return id, nil
}

// countArrivalLocked books one arrival (total and per class) for the
// fleet's conservation accounting. Caller holds the fleet mutex.
func (f *Fleet) countArrivalLocked(cfg serve.StreamConfig) {
	f.arrivals++
	f.met.arrivalsCtr.Inc()
	if f.arrByClass == nil {
		f.arrByClass = map[string]int{}
	}
	f.arrByClass[serve.ClassOf(cfg)]++
}

// countRejectionLocked books one terminal rejection (total and per
// class). Caller holds the fleet mutex.
func (f *Fleet) countRejectionLocked(cfg serve.StreamConfig) {
	f.rejected++
	f.met.rejections.Inc()
	if f.rejByClass == nil {
		f.rejByClass = map[string]int{}
	}
	f.rejByClass[serve.ClassOf(cfg)]++
}

// intakeArrivals polls the open-loop Source with the fleet's virtual
// time and feeds due arrivals into the queue, rejecting when the queue
// is full. Runs single-threaded at the barrier.
func (f *Fleet) intakeArrivals() {
	if f.opts.Source == nil {
		return
	}
	now := float64(f.barrier) * f.opts.TickMS
	for _, cfg := range f.opts.Source.Take(now) {
		f.mu.Lock()
		f.countArrivalLocked(cfg)
		class := serve.ClassOf(cfg)
		if len(f.queue) >= f.opts.QueueLimit {
			f.countRejectionLocked(cfg)
			f.mu.Unlock()
			f.event(obs.FleetEvent{Kind: "reject", Name: cfg.Name,
				Tier: class, Tenant: cfg.Tenant, Reason: "fleet queue full"})
			continue
		}
		id := f.nextID
		f.nextID++
		if cfg.Name == "" {
			cfg.Name = fmt.Sprintf("stream-%d", id)
		}
		f.queue = append(f.queue, &waiting{id: id, cfg: cfg, prof: f.profile(cfg)})
		f.mu.Unlock()
		f.event(obs.FleetEvent{Kind: "arrive", Stream: id, Name: cfg.Name,
			Tier: class, Tenant: cfg.Tenant})
	}
}

// drainBoardEvents pulls the admission events every board buffered
// during its round (preemptions) onto the fleet trace, in board order —
// single-threaded at the barrier, so fixed-seed traces stay
// byte-identical even though boards stepped in parallel.
func (f *Fleet) drainBoardEvents() {
	for _, b := range f.boards {
		for _, ev := range b.srv.DrainStreamEvents() {
			reason := ev.Reason
			if ev.Retired {
				reason = "retired: " + reason
			}
			f.event(obs.FleetEvent{Kind: ev.Kind, Stream: ev.Stream,
				Name: ev.Name, From: b.name, Tier: ev.Class,
				Tenant: ev.Tenant, Reason: reason})
		}
	}
}

// Rejected returns the number of submissions refused by backpressure.
func (f *Fleet) Rejected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rejected
}

// Run drives the fleet to completion: barrier loop (place, step all
// boards in parallel, re-check health and SLO feasibility, migrate),
// then a final drain of every board, and returns the merged report.
func (f *Fleet) Run() *Report {
	f.mu.Lock()
	f.running = true
	f.mu.Unlock()

	for {
		f.intakeArrivals()
		f.placeQueued()
		f.captureCheckpoints()
		ran := f.stepBoards()
		f.barrier++
		f.met.barriers.Inc()
		f.observeFailures()
		f.drainBoardEvents()
		f.reapFinished()
		f.updateBoardHealth()
		f.advanceAdaptRollout()
		if !f.opts.DisableMigration {
			f.checkMigrations()
		}
		f.reapFinished()
		f.met.queueDepth.Set(float64(len(f.queue)))
		f.met.liveGauge.Set(float64(len(f.live)))
		if !ran && len(f.live) == 0 {
			if f.opts.Source != nil && !f.opts.Source.Exhausted() {
				continue // idle lull between arrivals; keep ticking
			}
			if len(f.queue) == 0 {
				break
			}
			// Nothing can run, nothing could be placed, and no more
			// arrivals are coming: every board is quarantined, dead or
			// out of capacity for good. Fresh submissions are rejected;
			// already-admitted re-entrants (evacuees and unrestorable
			// checkpoints) are retired — they were arrivals once, so
			// they land in the Retired conservation bucket, not Rejected.
			for _, w := range f.queue {
				class := serve.ClassOf(w.cfg)
				switch {
				case w.det != nil:
					w.det.Retire("fleet: no board with capacity")
					f.retired++
					f.met.retired.Inc()
					f.event(obs.FleetEvent{Kind: "retire", Stream: w.id,
						Name: w.cfg.Name, Tier: class, Tenant: w.cfg.Tenant,
						Reason: "evacuated stream: no board with capacity"})
				case w.ck != nil:
					f.retired++
					f.met.retired.Inc()
					if f.retByClass == nil {
						f.retByClass = map[string]int{}
					}
					f.retByClass[class]++
					f.event(obs.FleetEvent{Kind: "retire", Stream: w.id,
						Name: w.cfg.Name, Tier: class, Tenant: w.cfg.Tenant,
						Reason: "checkpoint unrestorable: no board with capacity"})
				default:
					f.mu.Lock()
					f.countRejectionLocked(w.cfg)
					f.mu.Unlock()
					f.event(obs.FleetEvent{Kind: "reject", Stream: w.id,
						Name: w.cfg.Name, Tier: class,
						Tenant: w.cfg.Tenant, Reason: "no board with capacity"})
				}
			}
			f.queue = nil
			break
		}
	}
	return f.buildReport()
}

// stepBoards runs one round of every board in parallel and reports
// whether any board had work. Each board is internally synchronized;
// cross-board state is only touched at the barrier.
//
// Fail-stop board faults are enacted here, single-threaded, before the
// parallel section: a board whose crash round has come is killed on the
// spot (its in-memory streams are gone — the fleet only learns through
// the missed heartbeats that follow), and a board inside its blackout
// window is not stepped at all (unresponsive, state frozen intact). A
// board that was stepped counts as having beaten its lease this barrier
// whether or not it had work; crashed and blacked-out boards do not.
func (f *Fleet) stepBoards() bool {
	ran := make([]bool, len(f.boards))
	stepped := make([]bool, len(f.boards))
	round := f.barrier + 1 // fault rounds are 1-based, like board rounds
	var wg sync.WaitGroup
	for i, b := range f.boards {
		if f.det != nil {
			if b.crashed {
				continue
			}
			if fc := b.opts.Faults; fc != nil {
				if start, end := fc.BlackoutWindow(); start > 0 && round >= start && round < end {
					continue
				}
				if fc.CrashRound > 0 && round >= fc.CrashRound {
					b.crashed = true
					b.srv.Kill()
					continue
				}
			}
		}
		stepped[i] = true
		i, b := i, b
		wg.Add(1)
		go func() {
			defer wg.Done()
			ran[i] = b.srv.StepRound()
		}()
	}
	wg.Wait()
	if f.det != nil {
		for k := range f.beats {
			delete(f.beats, k)
		}
		for i, b := range f.boards {
			if stepped[i] {
				f.beats[b.name] = true
			}
		}
	}
	for _, r := range ran {
		if r {
			return true
		}
	}
	return false
}

// reapFinished drops streams their board has retired (completed or
// stream-level quarantined) from the live set. Open-loop runs record a
// "depart" trace event per retirement, in live-set (id) order.
func (f *Fleet) reapFinished() {
	var still []*tracked
	for _, t := range f.live {
		res := t.handle.Result()
		if res == nil {
			still = append(still, t)
			continue
		}
		if f.store != nil {
			f.store.Drop(t.id) // nothing left to recover
		}
		f.met.departs.Inc()
		if f.opts.Source != nil {
			reason := "completed"
			switch {
			case res.Quarantined:
				reason = "quarantined: " + res.QuarantineReason
			case !res.MeetsSLO:
				reason = "completed (SLO violated)"
			}
			f.event(obs.FleetEvent{Kind: "depart", Stream: t.id,
				Name: t.cfg.Name, From: res.Board, Tier: res.Class,
				Tenant: res.Tenant, Reason: reason})
		}
	}
	f.live = still
}

// updateBoardHealth re-reads every board's panic tally and quarantines
// boards over the limit, evacuating their streams (unless migration is
// disabled, in which case the board keeps running and its streams fail
// at stream level — the ablation the fleet report quantifies).
func (f *Fleet) updateBoardHealth() {
	quar := 0
	for _, b := range f.boards {
		if b.quarantined {
			quar++
			continue
		}
		if b.crashed {
			continue // fail-stopped; the lease detector owns its fate
		}
		p := b.srv.Panics()
		if p >= f.opts.BoardPanicLimit {
			b.quarantined = true
			quar++
			f.event(obs.FleetEvent{Kind: "board", From: b.name,
				Reason: fmt.Sprintf("quarantined: %d worker panics", p)})
			if !f.opts.DisableMigration {
				f.evacuate(b)
			}
		} else if p > 0 && !b.degraded {
			b.degraded = true
			f.event(obs.FleetEvent{Kind: "board", From: b.name,
				Reason: fmt.Sprintf("degraded: %d worker panics", p)})
		}
	}
	f.met.boardsQuar.Set(float64(quar))
}

// advanceAdaptRollout stages online adaptation across the fleet: at
// each barrier, if the last rollout-enabled board's registry has
// recorded at least one promotion — the canary proved the adaptation
// loop improves prediction there — the next board's promotion gate
// opens. Gates only ever open (rollback is per-stream, via the
// adapter's own demotion machinery), and the single-threaded barrier
// keeps the opening sequence deterministic.
func (f *Fleet) advanceAdaptRollout() {
	for f.adaptFrontier > 0 && f.adaptFrontier < len(f.boards) {
		prev := f.boards[f.adaptFrontier-1]
		if prev.srv.AdaptRegistry().Promotions() < 1 {
			return
		}
		next := f.boards[f.adaptFrontier]
		next.adaptGate.Store(true)
		f.adaptFrontier++
		f.met.adaptBoards.Set(float64(f.adaptFrontier))
		f.event(obs.FleetEvent{Kind: "adapt", From: prev.name, To: next.name,
			Reason: fmt.Sprintf("staged rollout: %s promoted %d challenger(s)",
				prev.name, prev.srv.AdaptRegistry().Promotions())})
	}
}

// event records one fleet-trace event stamped with the current barrier.
func (f *Fleet) event(e obs.FleetEvent) {
	e.Barrier = f.barrier
	f.obsv.RecordFleetEvent(e)
}
