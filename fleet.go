package litereconfig

import (
	"fmt"
	"io"

	"litereconfig/internal/fault"
	"litereconfig/internal/fleet"
	"litereconfig/internal/serve"
	"litereconfig/internal/simlat"
)

// BoardSpec describes one board of a fleet: a simulated device running
// its own serving engine. Zero fields take the serving engine's
// defaults (see ServerConfig).
type BoardSpec struct {
	// Name labels the board in reports, metrics and traces. Default
	// "board-<index>".
	Name string
	// Device is the board's hardware profile. Default TX2.
	Device Device
	// GPUSlots, MaxOccupancy, Coupling, QueueLimit, RoundMS, RetryLimit
	// and StallRounds configure the board's serving engine exactly like
	// the same ServerConfig fields.
	GPUSlots     int
	MaxOccupancy float64
	Coupling     float64
	QueueLimit   int
	RoundMS      float64
	RetryLimit   int
	StallRounds  int
	// Faults is the board-scoped fault environment: every stream served
	// by this board inherits it unless the stream carries its own fault
	// config. A stream migrated to another board sheds this board's
	// faults and inherits the destination's.
	Faults *FaultConfig
}

// FleetConfig configures a multi-board fleet dispatcher.
type FleetConfig struct {
	// Boards describes the fleet's boards. At least one is required.
	Boards []BoardSpec
	// QueueLimit bounds the fleet-wide admission queue; submissions
	// beyond it are rejected with an error (backpressure). Default 64.
	QueueLimit int
	// BoardPanicLimit quarantines a board once its recovered worker
	// panics reach this count, evacuating its streams to the surviving
	// boards. Default 3.
	BoardPanicLimit int
	// Hysteresis is how many consecutive fleet barriers a stream's SLO
	// must look infeasible on its board before the fleet migrates it.
	// Default 2.
	Hysteresis int
	// CloneMS is the model-clone share of the migration hand-off cost in
	// device milliseconds; the detector warm-up share comes from the
	// switching-cost model. Default 25.
	CloneMS float64
	// MaxMigrations caps per-stream board hand-offs. Default 3.
	MaxMigrations int
	// SafetyFactor shrinks SLOs to planning budgets for placement and
	// migration scoring. Default 0.88.
	SafetyFactor float64
	// DisableMigration turns off live migration (both SLO-driven and
	// board-quarantine evacuation) — the ablation baseline.
	DisableMigration bool
	// Observer, when set, records every board's metrics and decision
	// traces (board-labeled) plus the fleet's own placement/migration
	// trace. Read it after Run via the FleetReport accessors.
	Observer *Observer
	// Adapt, when set, turns on online model adaptation on every board:
	// each board gets its own versioned registry, and every stream refits
	// a challenger from its realized GoF outcomes (champion–challenger
	// rollout; see AdaptConfig). Nil means frozen models fleet-wide.
	Adapt *AdaptConfig
	// AdaptStagger stages the rollout board by board: only the first
	// board starts with promotions enabled, and each subsequent board's
	// gate opens once the previous board's registry records a promotion.
	// Refitting and shadow scoring run everywhere regardless — the gate
	// only holds back champion swaps.
	AdaptStagger bool
	// ReplayTrace enriches every board's recorded decisions with the
	// scheduler input payload for offline counterfactual replay
	// (lr replay / internal replay engine). Requires Observer; off by
	// default.
	ReplayTrace bool
}

// Fleet dispatches video streams over several simulated boards,
// placing each stream where the scheduler's predicted best feasible
// branch maximizes accuracy under the stream's SLO, and live-migrating
// streams off boards that fail or become too contended. Build with
// NewFleet, feed with Submit, finish with Run.
type Fleet struct {
	f *fleet.Fleet
}

// NewFleet builds a fleet dispatcher from trained models.
func NewFleet(models *Models, cfg FleetConfig) (*Fleet, error) {
	if models == nil {
		return nil, fmt.Errorf("litereconfig: models are required")
	}
	opts := fleet.Options{
		Models:           models.m,
		QueueLimit:       cfg.QueueLimit,
		BoardPanicLimit:  cfg.BoardPanicLimit,
		Hysteresis:       cfg.Hysteresis,
		CloneMS:          cfg.CloneMS,
		MaxMigrations:    cfg.MaxMigrations,
		SafetyFactor:     cfg.SafetyFactor,
		DisableMigration: cfg.DisableMigration,
		Observer:         cfg.Observer.inner(),
		Adapt:            cfg.Adapt.inner(),
		AdaptStagger:     cfg.AdaptStagger,
		ReplayTrace:      cfg.ReplayTrace,
	}
	for _, bs := range cfg.Boards {
		bc := fleet.BoardConfig{
			Name:         bs.Name,
			GPUSlots:     bs.GPUSlots,
			MaxOccupancy: bs.MaxOccupancy,
			Coupling:     bs.Coupling,
			QueueLimit:   bs.QueueLimit,
			RoundMS:      bs.RoundMS,
			RetryLimit:   bs.RetryLimit,
			StallRounds:  bs.StallRounds,
			Faults:       bs.Faults.inner(),
		}
		if bs.Device != "" {
			dev, ok := simlat.DeviceByName(string(bs.Device))
			if !ok {
				return nil, fmt.Errorf("litereconfig: board %q: unknown device %q", bs.Name, bs.Device)
			}
			bc.Device = dev
		}
		opts.Boards = append(opts.Boards, bc)
	}
	f, err := fleet.New(opts)
	if err != nil {
		return nil, err
	}
	return &Fleet{f: f}, nil
}

// Submit enqueues one stream for fleet placement and returns its
// fleet-assigned id. It returns an error when the fleet queue is full
// (backpressure), when the fleet is already running, or when the
// options are invalid.
func (f *Fleet) Submit(v *Video, opts StreamOptions) (int, error) {
	if v == nil {
		return 0, fmt.Errorf("litereconfig: no video")
	}
	policy, err := serve.ParsePolicy(string(opts.Policy))
	if err != nil {
		return 0, err
	}
	return f.f.Submit(serve.StreamConfig{
		Name:            opts.Name,
		Video:           v.v,
		SLO:             opts.SLO,
		Class:           opts.Class,
		Policy:          policy,
		Seed:            opts.Seed,
		BaseContention:  opts.BaseContention,
		ContentionTrace: opts.ContentionTrace,
		Faults:          opts.Faults.inner(),
	})
}

// Run drives the fleet to completion — placing queued streams, stepping
// every board in lockstep barriers, migrating streams off quarantined
// or SLO-infeasible boards — and returns the merged report. It may be
// called once.
func (f *Fleet) Run() (*FleetReport, error) {
	r := f.f.Run()
	rep := &FleetReport{
		Rejected:    r.Rejected,
		Placed:      r.Placed,
		Migrations:  r.Migrations,
		Retired:     r.Retired,
		Quarantined: r.Quarantined,
		Panics:      r.Panics,
		Barriers:    r.Barriers,
		AttainRate:  r.AttainRate,
		Promotions:  r.Promotions,
		Demotions:   r.Demotions,
		Refits:      r.Refits,
		AdaptBoards: r.AdaptBoards,
		r:           r,
	}
	for i := range r.Boards {
		b := &r.Boards[i]
		rep.Boards = append(rep.Boards, BoardReport{
			Name:        b.Name,
			Quarantined: b.Quarantined,
			Rounds:      b.Rounds,
			Panics:      b.Panics,
			Report:      serverReport(b.Result),
		})
	}
	for i := range r.Streams {
		rep.Streams = append(rep.Streams, streamReport(&r.Streams[i]))
	}
	return rep, nil
}

// BoardReport is one board's slice of the fleet report.
type BoardReport struct {
	Name string
	// Quarantined marks a board the fleet took out of rotation after too
	// many worker panics.
	Quarantined bool
	// Rounds the board ran; Panics its recovered worker panics.
	Rounds int
	Panics int
	// Report is the board's own drain report.
	Report *ServerReport
}

// FleetReport is the aggregate outcome of Fleet.Run.
type FleetReport struct {
	// Boards holds per-board reports in board order.
	Boards []BoardReport
	// Streams holds every stream's row, merged across boards and sorted
	// by fleet id. A migrated stream appears once, reported by the board
	// that finished it — its Board and Migrations fields tell the story.
	Streams []StreamReport
	// Rejected counts fleet-level backpressure rejections. Placed,
	// Migrations and Retired count placement actions: initial
	// placements, live board hand-offs, and streams retired because no
	// board could take them.
	Rejected   int
	Placed     int
	Migrations int
	Retired    int
	// Quarantined counts streams that ended quarantined; Panics sums
	// recovered worker panics fleet-wide.
	Quarantined int
	Panics      int
	// Barriers is how many fleet barriers the run took.
	Barriers int
	// AttainRate is the fleet-wide fraction of streams that completed
	// within their SLO.
	AttainRate float64
	// Promotions, Demotions and Refits sum online-adaptation activity
	// fleet-wide; AdaptBoards is how many boards ended with their rollout
	// gate open (all zero when FleetConfig.Adapt is nil).
	Promotions  int
	Demotions   int
	Refits      int
	AdaptBoards int

	r *fleet.Report
}

// Summary renders the fleet report as text: the fleet line, then each
// board with its own summary indented beneath it.
func (r *FleetReport) Summary() string { return r.r.Summary() }

// WriteFleetTrace writes the fleet placement/migration trace as JSON
// Lines. Fixed-seed runs write byte-identical fleet traces.
func (r *FleetReport) WriteFleetTrace(w io.Writer) error { return r.r.WriteFleetTrace(w) }

// WriteTrace writes the merged scheduler decision trace as JSON Lines.
func (r *FleetReport) WriteTrace(w io.Writer) error { return r.r.WriteTrace(w) }

// ParseBoardFaultSpecs parses the board-scoped fault grammar used by
// lr fleet's -faults flag: semicolon-separated entries, each either a
// bare ParseFaultSpec spec (the fleet-wide default, keyed "*") or
// "<board>:<spec>" scoping a schedule to one named board. Example:
//
//	spike=0.01;b1:panic=0.2,stall=0.1
func ParseBoardFaultSpecs(spec string) (map[string]*FaultConfig, error) {
	m, err := fault.ParseBoardSpecs(spec)
	if err != nil {
		return nil, err
	}
	out := map[string]*FaultConfig{}
	for board, c := range m {
		out[board] = &FaultConfig{
			Seed: c.Seed, SpikeRate: c.SpikeRate, SpikeMS: c.SpikeMS,
			ExtractFailRate: c.ExtractFailRate,
			BurstRate:       c.BurstRate, BurstLevel: c.BurstLevel, BurstFrames: c.BurstFrames,
			StallRate: c.StallRate, StallMS: c.StallMS,
			PanicRate: c.PanicRate,
		}
	}
	return out, nil
}

// BoardFaultConfig resolves one board's schedule from a
// ParseBoardFaultSpecs map: the board's own entry if present, else the
// "*" fleet-wide default, else nil.
func BoardFaultConfig(specs map[string]*FaultConfig, board string) *FaultConfig {
	if c, ok := specs[board]; ok {
		return c
	}
	return specs["*"]
}
