// Package serve is the multi-stream serving engine: it multiplexes many
// concurrent video streams over one shared simulated board. Each stream
// owns a full LiteReconfig pipeline (scheduler + kernel) and a latency
// clock; a worker pool bounded by the board's GPU-slot count executes
// Group-of-Frames work; and the contention each stream's scheduler must
// adapt to is not a synthetic generator but the measured GPU occupancy
// of the *other* streams (contend.Coupled), closing the loop the paper's
// contention generator (Sec. 6) stands in for.
//
// The board advances in rounds of RoundMS simulated milliseconds. Within
// a round every admitted stream runs independently on its own clock (in
// parallel, on the worker pool); at the round barrier the engine
// re-measures each stream's GPU occupancy and recomputes every stream's
// coupled contention level for the next round. Because coupling only
// changes at barriers, results are deterministic for a fixed submission
// order and fixed seeds, regardless of goroutine scheduling.
//
// Admission control keeps the aggregate declared occupancy of admitted
// streams below MaxOccupancy: streams over the threshold wait in a FIFO
// queue, and once the queue is full further submissions are rejected
// (backpressure). Drain stops intake, serves everything admitted or
// queued to completion, and returns the per-stream and per-class report.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"litereconfig/internal/adapt"
	"litereconfig/internal/fault"
	"litereconfig/internal/obs"
	"litereconfig/internal/sched"
	"litereconfig/internal/simlat"
)

// ErrQueueFull reports a submission refused by admission backpressure.
// Under open-loop arrivals rejection is an expected outcome, not a
// fault: callers match it with errors.Is and count it rather than
// string-matching the message. Every rejection is also counted in the
// serve_rejections_total metric.
var ErrQueueFull = errors.New("serve: admission queue full")

// Defaults for Options fields left zero.
const (
	DefaultGPUSlots   = 2
	DefaultCoupling   = 0.5
	DefaultQueueLimit = 16
	DefaultRoundMS    = 200
	// DefaultEstOccupancy is the admission-time occupancy estimate used
	// for a stream before its first measured round.
	DefaultEstOccupancy = 0.5
	// DefaultRetryLimit is how many recovered worker panics a stream may
	// accumulate before it is quarantined.
	DefaultRetryLimit = 2
	// DefaultStallRounds is how many consecutive zero-progress rounds
	// quarantine a stream.
	DefaultStallRounds = 10
	// DefaultPreemptLimit is how many evictions a stream absorbs before
	// a further preemption retires it with partial results.
	DefaultPreemptLimit = 3
	// DefaultSafetyFactor shrinks a stream's SLO to the planning budget
	// used for barrier-time feasibility scoring, matching the stream
	// scheduler's own headroom.
	DefaultSafetyFactor = 0.88
)

// Options configures a Server.
type Options struct {
	// Models is the trained scheduler bundle. Each stream receives its
	// own Clone: the networks are shared read-only, the latency-model
	// state and predictor scratch are per stream.
	Models *sched.Models
	// Device is the simulated board shared by all streams. Default TX2.
	Device simlat.Device
	// GPUSlots bounds the worker pool: at most this many streams execute
	// simultaneously, and foreign occupancy is normalized by it. Default 2.
	GPUSlots int
	// MaxOccupancy is the admission threshold on the aggregate GPU
	// occupancy (sum over admitted streams, each in [0, 1]). Default
	// 2 x GPUSlots (a 2x-oversubscribed board).
	MaxOccupancy float64
	// Coupling scales foreign occupancy into a contention level
	// (contend.Coupled's Alpha). Zero means "use the default" (0.5); an
	// explicitly uncoupled board (Alpha = 0) is requested with any
	// negative value.
	Coupling float64
	// QueueLimit bounds the admission queue; submissions beyond it are
	// rejected. Default 16.
	QueueLimit int
	// RoundMS is the simulated length of one board round. Default 200.
	RoundMS float64
	// Board labels this server as one board of a fleet: engine metrics
	// and per-stream gauges gain a board="<name>" label, and reports name
	// the board that retired each stream. Empty for a standalone server
	// (no label is emitted).
	Board string
	// Faults is the default rate-driven fault schedule applied to every
	// stream (override per stream with StreamConfig.Faults or FaultPlan).
	// Each stream's injector mixes in its own seed, so schedules stay
	// decorrelated across streams.
	Faults *fault.Config
	// RetryLimit is how many recovered worker panics one stream may
	// accumulate before quarantine; a panicked round below the limit is
	// simply retried (one-shot faults do not re-fire). Zero means the
	// default (2); negative means quarantine on the first panic.
	RetryLimit int
	// StallRounds quarantines a stream after this many consecutive
	// rounds with zero frame progress. Zero means the default (10).
	StallRounds int
	// Observer is the opt-in observability sink: scheduler decision
	// traces at every GoF boundary plus engine metrics (per-round
	// occupancy, queue depth, admissions, rejections, per-stream coupled
	// contention). All samples are timestamped by the simulated clock,
	// and recording is passive, so an observed run takes exactly the
	// same scheduling decisions as an unobserved one.
	Observer *obs.Observer
	// Admission selects the queue discipline: AdmissionFIFO (default,
	// submission order, no skipping) or AdmissionWFQ (weighted-fair
	// order across SLO classes by ClassWeights).
	Admission AdmissionPolicy
	// ClassWeights maps an SLO class name to its weighted-fair-queueing
	// weight (default 1). Higher-weight classes are admitted more often
	// under backlog and outrank lower-weight classes for preemption.
	ClassWeights map[string]int
	// Preempt enables barrier-time preemption: when a higher-weight
	// stream's SLO is infeasible under the board's current occupancy
	// (or a higher-weight arrival cannot be admitted), the lowest-weight
	// active streams are evicted back to the admission queue — or, past
	// PreemptLimit evictions, retired with partial results. Feasibility
	// is judged from each stream's own measured latency inverted through
	// the board's contention model; no extra model state is needed.
	Preempt bool
	// PreemptLimit is the per-stream eviction budget; zero means the
	// default (3), negative means retire on the first preemption.
	PreemptLimit int
	// SafetyFactor shrinks SLOs to planning budgets for feasibility
	// scoring. Zero means the default (0.88).
	SafetyFactor float64
	// Adapt enables online model adaptation for every served stream:
	// each stream's scheduler shadows its decisions, refits a challenger
	// copy of its cloned models from realized GoF outcomes, and promotes
	// it champion–challenger style at GoF barriers. The server overrides
	// the config's per-stream fields — Label becomes the stream's
	// board-qualified id, Registry the board's shared registry
	// (Adapt.Registry if set, otherwise one the server creates), and
	// Gate the board's rollout gate (Adapt.Gate, which a fleet uses for
	// staged rollout; nil means promotions are always allowed).
	Adapt *adapt.Config
	// ReplayTrace enriches every recorded decision with the scheduler's
	// full input set (obs.ReplayPayload) for offline counterfactual
	// replay via internal/replay. Requires an Observer; off by default —
	// with the flag off, traces are byte-identical to older builds.
	ReplayTrace bool
	// RiskQuantile enables probabilistic SLO admission on every served
	// stream's scheduler (core.Options.RiskQuantile): branches are
	// admitted on their q-quantile predicted latency instead of the
	// mean, and the preemption controller inverts the same quantile of
	// each stream's recent measured latency — not the fixed P95 —
	// through the contention model when judging feasibility. 0 (the
	// default) is legacy mean admission with byte-identical traces.
	RiskQuantile float64
}

func (o Options) withDefaults() Options {
	if o.Device.Name == "" {
		o.Device = simlat.TX2
	}
	if o.GPUSlots <= 0 {
		o.GPUSlots = DefaultGPUSlots
	}
	if o.MaxOccupancy <= 0 {
		o.MaxOccupancy = 2 * float64(o.GPUSlots)
	}
	if o.Coupling == 0 {
		o.Coupling = DefaultCoupling
	} else if o.Coupling < 0 {
		o.Coupling = 0 // negative = explicitly uncoupled
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = DefaultQueueLimit
	}
	if o.RoundMS <= 0 {
		o.RoundMS = DefaultRoundMS
	}
	if o.RetryLimit == 0 {
		o.RetryLimit = DefaultRetryLimit
	} else if o.RetryLimit < 0 {
		o.RetryLimit = 0 // negative = quarantine on first panic
	}
	if o.StallRounds <= 0 {
		o.StallRounds = DefaultStallRounds
	}
	if o.PreemptLimit == 0 {
		o.PreemptLimit = DefaultPreemptLimit
	} else if o.PreemptLimit < 0 {
		o.PreemptLimit = 0 // negative = retire on first preemption
	}
	if o.SafetyFactor <= 0 {
		o.SafetyFactor = DefaultSafetyFactor
	}
	return o
}

// Server multiplexes streams over one simulated board. Submit and Drain
// are safe for concurrent use.
type Server struct {
	opts Options

	tasks    chan func()
	workerWG sync.WaitGroup

	// clones counts Models clones — one per admitted stream, never one
	// for a rejected or post-drain submission.
	clones atomic.Int64

	// adaptReg is the board's shared model registry (nil when adaptation
	// is off): every stream's promoted snapshots commit here, and a
	// stream migrating in re-points its adapter at it. adaptGate is the
	// board's rollout gate, owned by the fleet for staged rollout (nil =
	// promotions always allowed).
	adaptReg  *adapt.Registry
	adaptGate *atomic.Bool

	drainOnce sync.Once
	drained   chan struct{} // closed once the report exists

	mu          sync.Mutex
	nextID      int
	reserved    int       // queue slots held by submissions still building
	queue       []*stream // submitted, awaiting admission (FIFO or WFQ tag order)
	active      []*stream // admitted, not finished
	finished    []*stream // in completion order; report sorts by ID
	rejected    int
	rejByClass  map[string]int // backpressure rejections per SLO class
	preempts    int            // preemption evictions, all streams
	preemptRet  int            // streams retired by exhausted preemption budget
	rounds      int            // board rounds run so far
	panicsTotal int            // recovered worker panics, all streams
	draining    bool
	report      *Result

	// WFQ state: the system virtual time and each class's last finish
	// tag (see enqueueLocked). events buffers admission events for the
	// dispatcher to drain between rounds.
	wfqVirt  float64
	wfqLastF map[string]float64
	events   []StreamEvent

	// met holds the engine's cached metric handles; all nil (and every
	// call a no-op) when no Observer is configured.
	met struct {
		admissions  *obs.Counter
		rejections  *obs.Counter
		cloneCtr    *obs.Counter
		rounds      *obs.Counter
		panics      *obs.Counter
		retries     *obs.Counter
		quarantines *obs.Counter
		preempts    *obs.Counter
		preemptRet  *obs.Counter
		active      *obs.Gauge
		queued      *obs.Gauge
		degraded    *obs.Gauge
		occupancy   *obs.Gauge
		boardMS     *obs.Gauge
		occHist     *obs.Histogram
	}
}

// New builds a serving engine and starts its worker pool.
func New(opts Options) (*Server, error) {
	if opts.Models == nil {
		return nil, fmt.Errorf("serve: models are required")
	}
	if opts.RiskQuantile < 0 || opts.RiskQuantile >= 1 {
		return nil, fmt.Errorf("serve: RiskQuantile must be in [0, 1), got %v", opts.RiskQuantile)
	}
	opts = opts.withDefaults()
	s := &Server{opts: opts, tasks: make(chan func()), drained: make(chan struct{})}
	if ac := opts.Adapt; ac != nil {
		s.adaptReg = ac.Registry
		if s.adaptReg == nil {
			s.adaptReg = adapt.NewRegistry()
		}
		s.adaptGate = ac.Gate
	}
	if r := opts.Observer.Registry(); r != nil {
		// Board-labeled names: on a fleet every board shares one registry,
		// so engine series carry board="<name>"; standalone servers (empty
		// Board) keep the bare names.
		name := func(base string) string {
			return obs.Labeled(base, obs.L("board", opts.Board))
		}
		s.met.admissions = r.Counter(name("serve_admissions_total"))
		s.met.rejections = r.Counter(name("serve_rejections_total"))
		s.met.cloneCtr = r.Counter(name("serve_model_clones_total"))
		s.met.rounds = r.Counter(name("serve_rounds_total"))
		s.met.panics = r.Counter(name("serve_panics_total"))
		s.met.retries = r.Counter(name("serve_retries_total"))
		s.met.quarantines = r.Counter(name("serve_quarantined_total"))
		s.met.preempts = r.Counter(name("serve_preemptions_total"))
		s.met.preemptRet = r.Counter(name("serve_preempt_retired_total"))
		s.met.active = r.Gauge(name("serve_active_streams"))
		s.met.queued = r.Gauge(name("serve_queued_streams"))
		s.met.degraded = r.Gauge(name("serve_degraded_streams"))
		s.met.occupancy = r.Gauge(name("serve_aggregate_occupancy"))
		s.met.boardMS = r.Gauge(name("serve_board_sim_ms"))
		s.met.occHist = r.Histogram(name("serve_round_occupancy"),
			[]float64{0.25, 0.5, 1, 1.5, 2, 3, 4, 6, 8})
	}
	for i := 0; i < opts.GPUSlots; i++ {
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			for task := range s.tasks {
				task()
			}
		}()
	}
	return s, nil
}

// Options returns the server's effective (defaulted) options.
func (s *Server) Options() Options { return s.opts }

// AdaptRegistry returns the board's shared model registry, or nil when
// online adaptation is off.
func (s *Server) AdaptRegistry() *adapt.Registry { return s.adaptReg }

// Submit queues one stream for service. It returns a rejection error —
// and counts the rejection — when the admission queue is full, and a
// plain error when the server is draining or the config is invalid.
//
// Validation, backpressure and identity assignment all happen before
// the stream's pipeline is built: a rejected or post-drain submission
// never pays for a pipeline it will not run. The queue slot is reserved
// under the lock, the build runs outside it, and the stream only enters
// the queue if the server has not started draining in the meantime.
func (s *Server) Submit(cfg StreamConfig) (*Stream, error) {
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
	id := s.nextID
	s.nextID++
	s.mu.Unlock()

	st, err := s.buildStream(id, cfg)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitBuiltLocked(err); err != nil {
		return nil, err
	}
	s.enqueueLocked(st)
	return &Stream{st: st}, nil
}

// rejectLocked counts one backpressure rejection (total, per class, per
// tenant) and returns the typed error. Caller holds the server mutex.
func (s *Server) rejectLocked(cfg StreamConfig) error {
	s.rejected++
	s.met.rejections.Inc()
	class := ClassOf(cfg)
	if s.rejByClass == nil {
		s.rejByClass = map[string]int{}
	}
	s.rejByClass[class]++
	s.classCounter("serve_class_rejections_total", class).Inc()
	s.tenantCounter("serve_tenant_rejections_total", cfg.Tenant).Inc()
	return fmt.Errorf("serve: %w (%d streams), stream %q refused",
		ErrQueueFull, s.opts.QueueLimit, cfg.Name)
}

// Clones returns the number of Models clones held by admitted streams;
// rejected and post-drain submissions do not count.
func (s *Server) Clones() int { return int(s.clones.Load()) }

// Rejected returns the number of submissions turned away by backpressure.
func (s *Server) Rejected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejected
}

// QueueDepth returns the number of streams waiting for admission.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// admitLocked moves queued streams into the active set while the
// aggregate occupancy stays within the threshold. Admission takes the
// queue strictly in its head order — submission order under FIFO,
// (finishTag, id) order under WFQ — with no skipping, so a heavy
// head-of-line stream queues rather than starves. Under preemption the
// threshold is further tightened by the feasibility caps of active
// higher-weight streams (capForLocked), so an evicted best-effort stream
// cannot bounce straight back onto the board it was evicted from. An
// idle board always admits the head: serving something beats waiting for
// an occupancy estimate that can never fit.
func (s *Server) admitLocked() {
	for len(s.queue) > 0 {
		agg := 0.0
		for _, st := range s.active {
			agg += st.occ
		}
		head := s.queue[0]
		if len(s.active) > 0 && agg+head.occ > s.headCapLocked(head) {
			return
		}
		s.queue = s.queue[1:]
		if head.finishTag > s.wfqVirt {
			// Serving this tag advances the system virtual time, so a class
			// that went idle re-enters at the current front of the schedule
			// instead of with banked credit.
			s.wfqVirt = head.finishTag
		}
		s.active = append(s.active, head)
		s.met.admissions.Inc()
	}
}

// Drain stops intake and serves every admitted and queued stream to
// completion, then stops the worker pool and returns the report. It is
// idempotent and safe to call concurrently: exactly one caller runs the
// round loop (sync.Once guards the task-channel close), every other
// caller blocks until the report exists and returns the same report.
func (s *Server) Drain() *Result {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()

		for s.runRound() {
		}
		close(s.tasks)
		s.workerWG.Wait()

		s.mu.Lock()
		s.report = s.buildReportLocked(s.rounds)
		s.mu.Unlock()
		close(s.drained)
	})
	<-s.drained
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report
}

// Kill fail-stops the board: every live (active or queued) stream is
// discarded — its in-memory pipeline, clock and tracker state are gone,
// exactly what a board crash loses — the worker pool stops, and the
// report is built from the streams that had already finished (their
// completion reports were delivered at the barrier they finished at, so
// they survive the crash). Kill shares Drain's once-guard: a later
// Drain on a killed board returns the stored report instead of running
// rounds. The fleet dispatcher calls Kill only at its own barrier, with
// no round in flight.
func (s *Server) Kill() {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.active = nil
		s.queue = nil
		s.wfqLastF = nil
		s.mu.Unlock()

		close(s.tasks)
		s.workerWG.Wait()

		s.mu.Lock()
		s.report = s.buildReportLocked(s.rounds)
		s.mu.Unlock()
		close(s.drained)
	})
	<-s.drained
}

// runRound admits from the queue, couples contention from the current
// occupancies, runs one RoundMS round of every active stream on the
// worker pool, and retires finished streams at the barrier. It reports
// false once no stream is active or queued.
func (s *Server) runRound() bool {
	s.mu.Lock()
	s.preemptLocked()
	s.admitLocked()
	if len(s.active) == 0 {
		s.mu.Unlock()
		return false
	}
	round := append([]*stream(nil), s.active...)
	total := 0.0
	for _, st := range round {
		total += st.occ
	}
	for _, st := range round {
		// Foreign occupancy: everyone else's load, spread over the
		// board's GPU slots. The stream's Coupled generator turns this
		// into its contention level for the whole round.
		st.foreign = (total - st.occ) / float64(s.opts.GPUSlots)
	}
	for _, st := range s.queue {
		st.waitRounds++
	}
	s.rounds++
	// Per-round board samples, all under the lock in deterministic
	// order; the board's timestamp is its simulated round horizon.
	s.met.rounds.Inc()
	s.met.active.Set(float64(len(round)))
	s.met.queued.Set(float64(len(s.queue)))
	s.met.occupancy.Set(total)
	s.met.occHist.Observe(total)
	s.met.boardMS.Set(float64(s.rounds) * s.opts.RoundMS)
	s.mu.Unlock()

	var wg sync.WaitGroup
	for _, st := range round {
		st := st
		wg.Add(1)
		s.tasks <- func() {
			defer wg.Done()
			// Contain panics (injected or real) to the stream that raised
			// them: mark the stream and let the barrier decide between
			// retry and quarantine. The worker goroutine survives and
			// wg.Wait never wedges. Recover runs before wg.Done (LIFO).
			defer func() {
				if r := recover(); r != nil {
					st.panicked = true
					st.panicMsg = fmt.Sprint(r)
				}
			}()
			st.run(s.opts.RoundMS)
		}
	}
	wg.Wait()

	s.mu.Lock()
	var still []*stream
	degraded := 0
	for _, st := range round {
		st.measure()
		progressed := st.stepper.Frames() > st.lastFrames
		st.lastFrames = st.stepper.Frames()
		if st.panicked {
			st.panicked = false
			st.panics++
			st.panicsTotal++
			s.panicsTotal++
			s.met.panics.Inc()
			if st.panics > s.opts.RetryLimit {
				s.quarantineLocked(st, "panic retries exhausted: "+st.panicMsg)
				continue
			}
			// Bounded retry: the stream stays active and re-runs from
			// where its clock stopped; one-shot faults do not re-fire.
			s.met.retries.Inc()
		}
		if st.finishedRun {
			st.updateHealth()
			st.retireLocked()
			continue
		}
		if !progressed {
			if st.stallRounds++; st.stallRounds >= s.opts.StallRounds {
				s.quarantineLocked(st, fmt.Sprintf("no progress for %d rounds", st.stallRounds))
				continue
			}
		} else {
			st.stallRounds = 0
		}
		st.updateHealth()
		if st.health == HealthDegraded {
			degraded++
		}
		still = append(still, st)
	}
	s.active = still
	s.pruneWFQLocked()
	s.met.degraded.Set(float64(degraded))
	s.mu.Unlock()
	return true
}

// quarantineLocked retires a failed stream: its partial results are
// finalized into the report with the terminal health state and the
// reason. Caller holds the server mutex.
func (s *Server) quarantineLocked(st *stream, reason string) {
	st.health = HealthQuarantined
	st.quarReason = reason
	s.met.quarantines.Inc()
	st.retireLocked()
}

// retireLocked finalizes a stream (completed or quarantined) into the
// finished set and exports its injector's per-class fired-fault counts
// under the board's label. Caller holds the server mutex; the method is
// on stream's server for access to device, registry and the finished
// list.
func (st *stream) retireLocked() {
	srv := st.srv
	st.finalize(srv.opts.Device)
	st.exportFaultCounts()
	srv.classCounter("serve_class_completions_total", st.className()).Inc()
	srv.tenantCounter("serve_tenant_completions_total", st.cfg.Tenant).Inc()
	srv.finished = append(srv.finished, st)
}
