package serve

import (
	"fmt"
	"strings"

	"litereconfig/internal/adapt"
	"litereconfig/internal/contend"
	"litereconfig/internal/core"
	"litereconfig/internal/fault"
	"litereconfig/internal/harness"
	"litereconfig/internal/mbek"
	"litereconfig/internal/obs"
	"litereconfig/internal/sched"
	"litereconfig/internal/simlat"
	"litereconfig/internal/vid"
)

// StreamConfig describes one video stream submitted for service.
type StreamConfig struct {
	// Name labels the stream in reports. Default "stream-<id>".
	Name string
	// Video is the stream's content. Required.
	Video *vid.Video
	// SLO is the stream's per-frame latency objective in simulated ms.
	// Required.
	SLO float64
	// Class groups streams for aggregate SLO attainment (e.g. "gold",
	// "33ms"). Default: derived from the SLO.
	Class string
	// Tenant identifies the customer the stream belongs to. Optional;
	// when set, per-tenant completion/rejection counters are exported and
	// the tenant is carried on trace events and report rows.
	Tenant string
	// Policy is the scheduler variant. Default core.PolicyFull.
	Policy core.Policy
	// Degrade controls the stream scheduler's graceful-degradation
	// machinery (watchdog ladder + heavy-feature circuit breaker). The
	// default, core.DegradeAuto, engages it exactly when the stream has
	// a fault injector.
	Degrade core.DegradeMode
	// Seed fixes the stream's stochastic realization. Default 1 + id,
	// assigned under the server lock once the id is known, so unseeded
	// streams get distinct realizations.
	Seed int64
	// Faults overrides the server-wide fault schedule (Options.Faults)
	// for this stream; the injector mixes the stream's seed in, so
	// sibling streams sharing one config still draw distinct schedules.
	Faults *fault.Config
	// FaultPlan schedules explicit one-shot fault events for this stream
	// and takes precedence over any rate-driven config.
	FaultPlan *fault.Plan
	// BaseContention is a contention floor external to the served
	// streams (contend.Coupled's Floor).
	BaseContention float64
	// ContentionTrace replays a recorded per-frame external contention
	// floor instead of the constant BaseContention; frames past the end
	// of the trace hold its last level.
	ContentionTrace []float64
	// EstOccupancy is the admission-time GPU occupancy estimate used
	// until the stream's first measured round. Zero means "use the
	// default" (0.5); a negative value requests an explicit zero
	// estimate (admit unconditionally until first measurement).
	EstOccupancy float64
}

// ParsePolicy maps a policy token to a StreamConfig.Policy through
// core.ParsePolicy. An empty token means core.PolicyFull. A forced
// feature ("force-hog") is an error: StreamConfig has no field to carry
// the feature.
func ParsePolicy(s string) (core.Policy, error) {
	if strings.TrimSpace(s) == "" {
		return core.PolicyFull, nil
	}
	p, _, err := core.ParsePolicy(s)
	if err == nil && p == core.PolicyForceFeature {
		return 0, fmt.Errorf("serve: policy %q forces a feature, which a stream cannot carry", s)
	}
	return p, err
}

// stream is the engine-internal state of one admitted or queued stream.
// All fields except foreign are touched either under the server mutex or
// exclusively by the worker running the stream's round; foreign is
// written at the round barrier and read during the round (ordered by the
// task dispatch and the round WaitGroup).
type stream struct {
	id  int
	srv *Server
	cfg StreamConfig

	pipeline *core.Pipeline
	clock    *simlat.Clock
	kernel   *mbek.Kernel
	stepper  *harness.Stepper
	res      *harness.Result

	// foreign is the aggregate occupancy of the other streams, set at
	// each round barrier; the Coupled generator reads it per frame.
	foreign float64

	// occ is the stream's measured GPU occupancy over its last round
	// (EstOccupancy before the first measurement).
	occ              float64
	lastNow, lastGPU float64

	rounds      int
	waitRounds  int
	contSum     float64 // sum of per-round applied contention levels
	finishedRun bool
	result      *StreamResult
	// finalMAP is the completed run's mAP, computed by the worker whose
	// round finished the run (hasFinalMAP), so the barrier that retires
	// the stream does not run the ranked sweep under the server mutex
	// while every other worker waits.
	finalMAP    float64
	hasFinalMAP bool

	// Admission-control state, all barrier-side under the server mutex.
	// weight is the stream's WFQ class weight on its current board;
	// finishTag its virtual finish time while queued under WFQ.
	// recentP95/lastCont snapshot the tail per-frame latency and applied
	// contention of the round just run (feasibleOccLocked inverts them —
	// the tail, not the mean, because SLO attainment is a P95 criterion);
	// feasOcc is the aggregate occupancy cap under which the stream's SLO
	// stays feasible, refreshed each barrier by preemptLocked. snapDegrade
	// mirrors the scheduler's degradation rung as of the last barrier so
	// StreamStates never reads worker-side state mid-round.
	weight         int
	finishTag      float64
	recentP95      float64
	lastLatIdx     int
	lastCont       float64
	feasOcc        float64
	preemptions    int
	preemptRetired bool
	snapDegrade    int

	// Health state. panicked/panicMsg are written by the worker that ran
	// the round and read at the barrier (ordered by the round WaitGroup);
	// everything else is barrier-side only.
	health      Health
	panicked    bool
	panicMsg    string
	panics      int // recovered worker panics on the current board
	panicsTotal int // recovered worker panics across all boards
	stallRounds int // consecutive rounds with zero frame progress
	lastFrames  int
	lastGoFs    int // completed GoFs as of the last barrier (checkpoint unit)
	quarReason  string

	// Crash-recovery state. recoveries counts checkpoint restores after
	// board deaths; resumeFrame is the global frame the latest
	// incarnation resumed from (its result rows cover [resumeFrame, end)
	// — pre-checkpoint detail died with the board). fleetRetired marks a
	// stream the fleet retired with no board able to take it, so the
	// conservation accounting can tell retirement from completion.
	recoveries   int
	resumeFrame  int
	fleetRetired bool

	// Migration state: how many times the stream moved between boards,
	// and the per-class fired-fault counts already exported to the
	// registry (so a mid-life export at a migration hand-off and the
	// final export at retirement never double-count).
	migrations int
	exported   map[string]int

	// Per-stream board gauges (nil when unobserved), sampled at each
	// round barrier under the server lock.
	contGauge *obs.Gauge
	occGauge  *obs.Gauge
}

// validateStreamConfig rejects configs the engine cannot serve.
func validateStreamConfig(cfg StreamConfig) error {
	if cfg.Video == nil {
		return fmt.Errorf("serve: stream needs a video")
	}
	if cfg.SLO <= 0 {
		return fmt.Errorf("serve: stream needs a positive SLO")
	}
	return nil
}

// buildStream builds the per-stream pipeline on its own clock and models
// clone. The caller has already assigned the id and reserved a queue
// slot; the build happens here, off the server lock, and the caller
// finishes it with admitBuiltLocked.
func (s *Server) buildStream(id int, cfg StreamConfig) (*stream, error) {
	return s.buildStreamWith(id, cfg, nil, 0)
}

// admitBuiltLocked finishes a build that ran off the lock: it releases
// the reserved slot and refuses the stream if the build failed or the
// server began draining meanwhile. Only an admitted stream counts its
// models clone, so a submission that loses the race with Drain never
// shows up in Clones. Caller holds the server mutex.
func (s *Server) admitBuiltLocked(buildErr error) error {
	s.reserved--
	if buildErr != nil {
		return buildErr
	}
	if s.draining {
		return fmt.Errorf("serve: server is draining, not accepting streams")
	}
	s.clones.Add(1)
	s.met.cloneCtr.Inc()
	return nil
}

// buildStreamWith is buildStream with recovery hooks: a non-nil warm
// model bundle is cloned instead of the server's base models (restoring
// a stream's adapted champion from the fleet's registry mirror), and a
// nonzero generation stamps the stream's decisions as a restored
// incarnation so they never collide with the lost one's trace
// coordinates.
func (s *Server) buildStreamWith(id int, cfg StreamConfig, warm *sched.Models, gen int) (*stream, error) {
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("stream-%d", id)
	}
	if cfg.Seed == 0 {
		// Documented default: each stream gets its own stochastic
		// realization, derived from the (unique) id.
		cfg.Seed = 1 + int64(id)
	}
	base := s.opts.Models
	if warm != nil {
		base = warm
	}
	models, err := base.Clone()
	if err != nil {
		return nil, err
	}
	so := s.opts.Observer.StreamObserverGen(id, cfg.Name, gen)
	// Per-stream online adapter, wrapping the stream's own models clone.
	// The version label is board-qualified ("b1/s3.v2") so streams that
	// migrate never collide with the destination board's native labels
	// in its registry.
	var adapter *adapt.Adapter
	if ac := s.opts.Adapt; ac != nil {
		acfg := *ac
		acfg.Label = fmt.Sprintf("s%d", id)
		if s.opts.Board != "" {
			acfg.Label = s.opts.Board + "/" + acfg.Label
		}
		acfg.Registry = s.adaptReg
		acfg.Gate = s.adaptGate
		adapter = adapt.New(acfg, models)
	}
	p, err := core.NewPipeline(core.Options{
		Models: models, SLO: cfg.SLO, Policy: cfg.Policy, Observer: so,
		Degrade: cfg.Degrade, Adapter: adapter,
		ReplayTrace:  s.opts.ReplayTrace,
		RiskQuantile: s.opts.RiskQuantile,
	})
	if err != nil {
		return nil, err
	}
	// Per-stream fault injector: an explicit plan wins, then the stream's
	// own rate config, then the board-wide default. The scheduler owns
	// the graceful-degradation reaction; the stepper charges boundary
	// faults; the worker fires scheduled panics.
	var inj *fault.Injector
	if cfg.FaultPlan != nil {
		inj = fault.FromPlan(*cfg.FaultPlan)
	} else if fc := cfg.Faults; fc != nil && fc.Enabled() {
		inj = fault.NewInjector(*fc, cfg.Seed)
	} else if fc := s.opts.Faults; fc != nil && fc.Enabled() {
		inj = fault.NewInjector(*fc, cfg.Seed)
	}
	p.Sched.SetInjector(inj)
	if cfg.EstOccupancy == 0 {
		cfg.EstOccupancy = DefaultEstOccupancy
	} else if cfg.EstOccupancy < 0 {
		cfg.EstOccupancy = 0 // negative = explicit zero estimate
	}
	if cfg.EstOccupancy > 1 {
		cfg.EstOccupancy = 1
	}
	st := &stream{id: id, srv: s, cfg: cfg, pipeline: p, occ: cfg.EstOccupancy}
	st.weight = s.weightOf(st.className())
	st.clock = simlat.NewClock(s.opts.Device, cfg.Seed)
	st.kernel = mbek.NewKernel(p.Det, st.clock)
	st.res = &harness.Result{MemoryGB: p.MemoryGB}
	st.stepper = harness.NewStepper(st.kernel, p.Sched,
		[]*vid.Video{cfg.Video}, st.clock, nil, st.res)
	st.stepper.SetObserver(so)
	st.stepper.SetInjector(inj)
	st.bindBoard()
	return st, nil
}

// bindBoard wires the stream's board-dependent plumbing to its current
// server: the coupled contention generator (foreign occupancy scaled by
// the board's coupling, layered under the stream's injector) and the
// board-labeled per-stream gauges. Called at build time and again by
// rebind after a migration.
func (st *stream) bindBoard() {
	s := st.srv
	cg := contend.Coupled{
		Source: func(int) float64 { return st.foreign },
		Alpha:  s.opts.Coupling,
		Floor:  st.cfg.BaseContention,
	}
	if s.opts.Coupling == 0 {
		// withDefaults resolved a negative Coupling to an explicit zero;
		// translate it to Coupled's own convention (where a zero Alpha
		// means identity, not "uncoupled").
		cg.Alpha = -1
	}
	if len(st.cfg.ContentionTrace) > 0 {
		cg.FloorSource = contend.Trace{Levels: st.cfg.ContentionTrace}
	}
	st.stepper.SetGenerator(fault.WrapContention(cg, st.stepper.Injector()))
	if r := s.opts.Observer.Registry(); r != nil {
		st.contGauge = r.Gauge(obs.Labeled("serve_stream_contention",
			obs.L("stream", st.cfg.Name), obs.L("board", s.opts.Board)))
		st.occGauge = r.Gauge(obs.Labeled("serve_stream_occupancy",
			obs.L("stream", st.cfg.Name), obs.L("board", s.opts.Board)))
	} else {
		st.contGauge, st.occGauge = nil, nil
	}
}

// rebind moves a detached stream onto server s: the clock keeps its
// accumulated time but charges at the new board's speed, the contention
// generator couples to the new board's streams, and — unless the stream
// carries its own fault schedule — the injector is rebuilt from the new
// board's fault environment. Board-local health counters reset (a fresh
// board owes the stream a fresh retry budget); panicsTotal keeps the
// lifetime tally for the report. Steppers rest at GoF boundaries between
// rounds, so none of this lands mid-GoF.
func (st *stream) rebind(s *Server) {
	st.srv = s
	st.clock.SetDevice(s.opts.Device)
	if st.cfg.FaultPlan == nil && (st.cfg.Faults == nil || !st.cfg.Faults.Enabled()) {
		// Board-scoped faults travel with the board, not the stream.
		var inj *fault.Injector
		if fc := s.opts.Faults; fc != nil && fc.Enabled() {
			inj = fault.NewInjector(*fc, st.cfg.Seed)
		}
		st.stepper.SetInjector(inj)
		st.exported = nil // fresh injector: exports restart from zero
	}
	// Fresh board, fresh degradation state: the watchdog ladder and the
	// heavy-feature breaker were reacting to the old board's environment.
	st.pipeline.Sched.SetInjector(st.stepper.Injector())
	// The adapter travels with the stream — its learned champion,
	// challenger and RLS state survive the hand-off — but its rollout
	// plumbing is board-scoped: future promotions commit to the
	// destination's registry and answer to the destination's gate.
	if a := st.pipeline.Sched.Adapter(); a != nil {
		a.SetRegistry(s.adaptReg)
		a.SetGate(s.adaptGate)
	}
	st.bindBoard()
	// Class weight is a board policy, re-resolved on the new board; the
	// latency measurements and preemption budget travel with the stream.
	st.weight = s.weightOf(st.className())
	st.foreign = 0
	st.panics = 0
	st.stallRounds = 0
	st.lastFrames = st.stepper.Frames()
	st.migrations++
	st.updateHealth()
}

// exportFaultCounts publishes the injector's per-class fired counts to
// the registry as deltas since the last export, under the current
// board's label. Retirement calls it once; a migration hand-off calls it
// early so faults fired on the old board are attributed there.
func (st *stream) exportFaultCounts() {
	r := st.srv.opts.Observer.Registry()
	inj := st.stepper.Injector()
	if r == nil || inj == nil {
		return
	}
	if st.exported == nil {
		st.exported = map[string]int{}
	}
	for class, n := range inj.Counts() {
		if d := n - st.exported[class]; d > 0 {
			r.Counter(obs.Labeled("fault_fired_total",
				obs.L("class", class), obs.L("board", st.srv.opts.Board))).Add(float64(d))
			st.exported[class] = n
		}
	}
}

// run advances the stream by one board round: it steps Group-of-Frames
// until roundMS simulated milliseconds elapse on the stream's clock or
// the video ends. Runs on a worker-pool goroutine. Scheduled worker
// panics fire here, before the step, so the recover in the round task
// never catches the stepper mid-mutation; PanicDue is one-shot, so the
// retried round resumes cleanly past the fault.
func (st *stream) run(roundMS float64) {
	st.rounds++
	target := st.clock.Now() + roundMS
	for st.clock.Now() < target {
		if st.stepper.Injector().PanicDue(st.stepper.Frames()) {
			panic(fmt.Sprintf("fault: injected worker panic (stream %q, frame %d)",
				st.cfg.Name, st.stepper.Frames()))
		}
		if !st.stepper.Step() {
			st.finishedRun = true
			// Step adds no frame result once it reports false, so this is
			// the mAP the report row needs.
			st.finalMAP, st.hasFinalMAP = st.stepper.MAP(), true
			break
		}
	}
}

// measure updates the stream's GPU occupancy from the clock deltas of
// the round just run. Called at the round barrier under the server lock.
func (st *stream) measure() {
	now, gpu := st.clock.Now(), st.clock.GPUBusyMS()
	if dNow := now - st.lastNow; dNow > 0 {
		occ := (gpu - st.lastGPU) / dNow
		if occ > 1 {
			occ = 1
		}
		st.occ = occ
	}
	st.lastNow, st.lastGPU = now, gpu
	if n := st.res.Latency.Count(); n > st.lastLatIdx {
		st.recentP95 = st.res.Latency.PercentileSince(st.lastLatIdx, st.srv.tailPct())
		st.lastLatIdx = n
	}
	st.lastCont = st.clock.Contention()
	st.snapDegrade = st.pipeline.Sched.DegradeLevel()
	st.lastGoFs = st.stepper.GoFs()
	st.contSum += st.clock.Contention()
	st.contGauge.Set(st.clock.Contention())
	st.occGauge.Set(st.occ)
}

// finalize closes the stream's result and computes its report row.
func (st *stream) finalize(dev simlat.Device) {
	st.stepper.Finish()
	st.res.Protocol = st.pipeline.Name()
	st.res.Device = dev
	st.res.SLO = st.cfg.SLO
	st.res.FeatureUse = st.pipeline.Sched.FeatureUse()
	meanCont := 0.0
	if st.rounds > 0 {
		meanCont = st.contSum / float64(st.rounds)
	}
	meanOcc := 0.0
	if now := st.clock.Now(); now > 0 {
		meanOcc = st.clock.GPUBusyMS() / now
	}
	mAP := st.finalMAP
	if !st.hasFinalMAP {
		mAP = st.res.MAP()
	}
	st.result = &StreamResult{
		ID:               st.id,
		Name:             st.cfg.Name,
		Class:            st.className(),
		Tenant:           st.cfg.Tenant,
		SLO:              st.cfg.SLO,
		Board:            st.srv.opts.Board,
		Migrations:       st.migrations,
		Preemptions:      st.preemptions,
		PreemptRetired:   st.preemptRetired,
		Policy:           st.res.Protocol,
		Frames:           len(st.res.Frames),
		MAP:              mAP,
		MeanMS:           st.res.Latency.Mean(),
		P95MS:            st.res.Latency.P95(),
		MeetsSLO:         st.res.MeetsSLO(),
		ViolationRate:    st.res.Latency.ViolationRate(st.cfg.SLO),
		Switches:         st.res.Switches,
		BranchCoverage:   st.res.BranchCoverage,
		MeanContention:   meanCont,
		MeanOccupancy:    meanOcc,
		Rounds:           st.rounds,
		WaitRounds:       st.waitRounds,
		Health:           st.health.String(),
		Panics:           st.panicsTotal,
		Quarantined:      st.health == HealthQuarantined,
		QuarantineReason: st.quarReason,
		Recovered:        st.recoveries > 0,
		Recoveries:       st.recoveries,
		ResumeFrame:      st.resumeFrame,
		FleetRetired:     st.fleetRetired,
		Raw:              st.res,
	}
	if a := st.pipeline.Sched.Adapter(); a != nil {
		st.result.ModelVersion = a.VersionLabel()
		st.result.Promotions = a.Promotions()
		st.result.Demotions = a.Demotions()
		st.result.Refits = a.Refits()
	}
}

// updateHealth recomputes a live stream's health at the round barrier:
// degraded while the scheduler's watchdog ladder is engaged, the stream
// is failing to make progress, or it has already survived a panic;
// healthy otherwise. Quarantine is terminal and set elsewhere.
func (st *stream) updateHealth() {
	if st.health == HealthQuarantined {
		return
	}
	if st.pipeline.Sched.DegradeLevel() > 0 || st.stallRounds > 0 || st.panics > 0 {
		st.health = HealthDegraded
	} else {
		st.health = HealthHealthy
	}
}

// className returns the stream's SLO class, deriving one from the SLO
// when unset.
func (st *stream) className() string {
	if st.cfg.Class != "" {
		return st.cfg.Class
	}
	return deriveClass(st.cfg.SLO)
}

// Stream is the caller's handle to a submitted stream.
type Stream struct{ st *stream }

// ID returns the stream's server-assigned id (submission order).
func (h *Stream) ID() int { return h.st.id }

// Name returns the stream's label.
func (h *Stream) Name() string { return h.st.cfg.Name }

// Result returns the stream's report row, or nil before the server has
// drained the stream to completion.
func (h *Stream) Result() *StreamResult { return h.st.result }

// Health returns the stream's health state as of its last round barrier
// (or its final state once drained).
func (h *Stream) Health() Health { return h.st.health }
