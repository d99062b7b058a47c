// Package core implements the paper's primary contribution: the
// LiteReconfig scheduler. At every Group-of-Frames boundary it
//
//  1. extracts the light-weight features and predicts per-branch latency
//     (Sec. 3.2, Eq. 2) and content-agnostic accuracy;
//  2. runs the cost-benefit analyzer (Sec. 3.4): using the offline
//     benefit table Ben(f_H) — never the heavy features themselves — it
//     greedily selects the subset of heavy-weight content features whose
//     expected accuracy gain survives their extraction + prediction cost;
//  3. extracts the selected features, runs the corresponding
//     content-aware accuracy models, and solves the constrained
//     optimization of Eq. 3: maximize predicted accuracy subject to
//     predicted latency — including scheduler cost S0 + S(f_H) and the
//     switching cost C(b0, b) — staying within the latency SLO.
//
// Four variants are provided (Sec. 4): the full cost-benefit scheduler,
// the content-agnostic MinCost, and the two greedy MaxContent variants
// that always use one fixed content feature.
package core

import (
	"fmt"
	"slices"

	"litereconfig/internal/adapt"
	"litereconfig/internal/fault"
	"litereconfig/internal/feat"
	"litereconfig/internal/glm"
	"litereconfig/internal/harness"
	"litereconfig/internal/mbek"
	"litereconfig/internal/obs"
	"litereconfig/internal/sched"
	"litereconfig/internal/simlat"
	"litereconfig/internal/vid"
)

// CompScheduler is the clock component label for all scheduler work
// (feature extraction, model inference, optimization).
const CompScheduler = "scheduler"

// Policy selects the scheduler variant.
type Policy int

const (
	// PolicyFull is the complete LiteReconfig: cost-benefit feature
	// selection plus switching-cost-aware constrained optimization.
	PolicyFull Policy = iota
	// PolicyMinCost is the content-agnostic variant: light features only.
	PolicyMinCost
	// PolicyMaxContentResNet always uses the ResNet50 content feature,
	// applying the SLO to the execution kernel only (greedy content
	// maximization; its own overhead is unmanaged).
	PolicyMaxContentResNet
	// PolicyMaxContentMobileNet always uses the MobileNetV2 feature, same
	// greedy regime.
	PolicyMaxContentMobileNet
	// PolicyForceFeature always uses Options.ForcedFeature — the Table 4
	// methodology ("always extract a particular feature ... with the
	// latency objective applied to the MBEK only").
	PolicyForceFeature
)

// DegradeMode controls the graceful-degradation machinery (the per-GoF
// latency watchdog and the heavy-feature circuit breaker).
type DegradeMode int

const (
	// DegradeAuto enables degradation exactly when a fault injector is
	// attached: chaos runs degrade gracefully, while unfaulted runs take
	// the same decisions they always did.
	DegradeAuto DegradeMode = iota
	// DegradeOn forces the watchdog and breaker on even without faults
	// (natural overruns then also trigger the ladder).
	DegradeOn
	// DegradeOff forces them off (chaos ablation: absorb nothing).
	DegradeOff
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyFull:
		return "LiteReconfig"
	case PolicyMinCost:
		return "LiteReconfig-MinCost"
	case PolicyMaxContentResNet:
		return "LiteReconfig-MaxContent-ResNet"
	case PolicyMaxContentMobileNet:
		return "LiteReconfig-MaxContent-MobileNet"
	case PolicyForceFeature:
		return "LiteReconfig-ForceFeature"
	}
	return "unknown"
}

// Options configures a Scheduler.
type Options struct {
	Models *sched.Models
	SLO    float64 // per-frame latency objective, ms
	Policy Policy

	// ForcedFeature is the feature used by PolicyForceFeature.
	ForcedFeature feat.Kind
	// IgnoreFeatureOverhead stops charging feature costs to the clock
	// (Table 4's "ignoring the overhead of that feature").
	IgnoreFeatureOverhead bool

	// SafetyFactor shrinks the SLO to a planning budget so that latency
	// jitter keeps the P95 under the objective. Defaults to 0.88.
	SafetyFactor float64
	// Hysteresis is the predicted-accuracy margin a new branch must beat
	// the current branch by before the full policy switches — the
	// cost-aware guard against fruitless reconfigurations. Defaults to
	// 0.004; set negative to disable.
	Hysteresis float64
	// DisableSwitchCost drops C(b0, b) from the latency constraint
	// (ablation).
	DisableSwitchCost bool
	// AssumedDevice is the device profile the scheduler *believes* it
	// runs on (the one its offline latency labels were scaled for). It
	// defaults to the actual device; setting it to a different profile
	// models online drift (Sec. 6) — e.g. thermal throttling makes the
	// actual CPU slower than the assumed profile, and only the drift
	// estimator can close the gap.
	AssumedDevice *simlat.Device
	// DisableDriftCompensation turns off the CPU-side online-drift
	// estimator (Sec. 6); the scheduler then trusts its offline latency
	// profile for CPU work unconditionally (ablation).
	DisableDriftCompensation bool
	// OracleContention makes the scheduler read the simulator's true
	// contention level instead of sensing it from observed detector
	// latencies (ablation; a real deployment can only sense).
	OracleContention bool
	// CostWeight converts scheduler latency into accuracy-equivalent
	// cost in the feature-selection objective: spending the whole
	// per-frame budget on features would cost CostWeight of predicted
	// mAP. It is the knob that keeps the analyzer from stacking every
	// marginally-useful feature. Defaults to 0.08; set negative to
	// disable (ablation).
	CostWeight float64
	// FeatureSeed seeds the feature extractor. Defaults to the trained
	// models' FeatureSeed — online extraction must use the same simulated
	// extractor weights the offline features came from.
	FeatureSeed int64
	// Faults is the rate-driven fault schedule the pipeline will inject
	// around this scheduler; the scheduler itself only stores it here so
	// Pipeline.Run can build a fresh per-run injector. Attach a live
	// injector with SetInjector.
	Faults *fault.Config
	// Degrade controls the graceful-degradation machinery: the per-GoF
	// latency watchdog (on overrun, fall down a branch ladder to the
	// cheapest SLO-feasible branch) and the heavy-feature circuit
	// breaker (after BreakerK consecutive failed or over-budget heavy
	// extractions, run light-features-only until a half-open probe
	// succeeds). DegradeAuto (the default) enables both exactly when a
	// fault injector is attached.
	Degrade DegradeMode
	// BreakerK and BreakerCooldown tune the circuit breaker: K
	// consecutive bad heavy outcomes open it, and it stays open for
	// Cooldown decisions (plus a seeded jitter) before a half-open
	// probe. Zero means the defaults (3 and 8).
	BreakerK        int
	BreakerCooldown int
	// Observer is the opt-in observability view for this scheduler's
	// stream: every Decide attaches its selected features, Ben(f_H)
	// verdict, chosen branch, predicted accuracy/latency and feasible
	// branch count to the decision the harness opened at the GoF
	// boundary. Recording is passive — it reads the clock, never charges
	// it — so decisions are identical with the observer on or off.
	Observer *obs.StreamObserver
	// SensorAlpha and DriftAlpha override the EWMA smoothing weights of
	// the contention sensor (core.DefaultSensorAlpha = 0.4) and the CPU
	// drift estimator (core.DefaultDriftAlpha = 0.2). Both estimators
	// warm up from their first observation — see the type docs in
	// sensor.go. Zero means the default.
	SensorAlpha float64
	DriftAlpha  float64
	// Adapt enables the online model-adaptation subsystem: the
	// scheduler shadows every decision, refits a challenger copy of the
	// models from realized GoF outcomes, and swaps it in at a GoF
	// barrier once it provably predicts better (champion–challenger
	// rollout). Nil means frozen models (plus the EWMA sensors above).
	Adapt *adapt.Config
	// Adapter attaches a pre-built adapter instead; it must wrap the
	// same Models the scheduler serves from. The serving engine uses
	// this to wire per-board registries and staged-rollout gates.
	// Overrides Adapt.
	Adapter *adapt.Adapter
	// ReplayTrace enriches every recorded decision with the scheduler's
	// full input set (obs.ReplayPayload): feature vectors, sensed
	// contention scales, budgets, and the per-branch A(b,f)/L(b,f)
	// tables for the whole candidate set, so internal/replay can re-run
	// the decision offline under altered policy knobs. Capture is
	// passive (reads only; no clock or RNG interaction) and requires an
	// Observer; with the flag off the trace bytes are identical to
	// pre-replay builds. Off by default — enriched traces are large.
	ReplayTrace bool
	// RiskQuantile switches the admission test from the mean to the
	// q-quantile of the predicted latency: a branch is feasible only
	// when its q-quantile per-frame latency — the point estimate lifted
	// by the per-branch lognormal prediction interval (sched.Models'
	// residual-variance accumulators) — fits the planning budget, i.e.
	// the scheduler admits on P(L(b,f) <= budget) >= q instead of
	// E[L(b,f)] <= budget. The branch argmax also discounts predicted
	// accuracy by the logistic tracker-failure probability. 0 (the
	// default) is legacy mean admission: the decision stream and trace
	// bytes are identical to pre-risk builds. Must be in [0, 1).
	RiskQuantile float64
}

// Scheduler is the online reconfiguration engine.
type Scheduler struct {
	opts   Options
	models *sched.Models
	ex     *feat.Extractor
	sensor *ContentionSensor
	drift  *CPUDriftEstimator

	// adapter is the online model-adaptation loop (nil = frozen
	// models). The scheduler reads s.models, which the adapter swaps to
	// a promoted challenger only inside ObserveGoFOutcome — a GoF
	// barrier — so every decision within a GoF window sees one
	// consistent model version.
	adapter *adapt.Adapter

	// decision statistics for analysis
	featureUse map[feat.Kind]int
	decisions  int

	// Graceful-degradation state: the attached fault injector (nil for
	// an unfaulted run), the heavy-feature circuit breaker, and the
	// watchdog's branch-ladder level with its overrun tally.
	inj          *fault.Injector
	brk          *breaker
	degradeLevel int
	overruns     int
	// lastHeavy marks that the previous decision actually extracted
	// heavy features, so the next ObserveGoF can attribute an overrun
	// (or a clean GoF) to the heavy path for the breaker.
	lastHeavy bool

	// cached metric handles (nil when unobserved)
	decisionsCtr   *obs.Counter
	fallbackCtr    *obs.Counter
	featureCtr     map[feat.Kind]*obs.Counter
	wdCtr          *obs.Counter
	brkOpenCtr     *obs.Counter
	extractFailCtr *obs.Counter
	degradedCtr    *obs.Counter

	// Per-decision scratch, reused across Decide calls so the per-GoF
	// hot path stays off the heap. Everything here is dead by the time
	// Decide returns — nothing downstream retains these slices (the
	// adapter copies the light vector it keeps, the observer renders
	// feature kinds to strings) — and a Scheduler only ever runs one
	// decision at a time.
	in           DecisionInput
	scrSel       FeatureScratch
	scrLight     []float64
	scrLightNorm []float64
	scrAccLight  []float64
	scrKernelMS  []float64
	scrAcc       []float64
	scrHeavy     map[feat.Kind][]float64
	scrVec       [feat.NumKinds][]float64 // extracted heavy vectors
	scrExtracted []feat.Kind
	scrFailed    []feat.Kind
	scrRiskF     []float64 // per-branch quantile inflation factors
	scrFailP     []float64 // per-branch tracker-failure probabilities

	// sw caches C(cur, ·) across decisions: switches happen on a minority
	// of GoFs, so the row is repriced only when the current branch, the
	// branch space or the adapter's observed switch table changes.
	sw switchRow

	// riskZ is the cached normal z-score of Options.RiskQuantile, so
	// the per-decision risk path never touches the inverse CDF.
	riskZ float64
}

// New validates the options and builds a scheduler.
func New(opts Options) (*Scheduler, error) {
	if opts.Models == nil {
		return nil, fmt.Errorf("core: Models is required")
	}
	if opts.SLO <= 0 {
		return nil, fmt.Errorf("core: SLO must be positive, got %v", opts.SLO)
	}
	if opts.SafetyFactor == 0 {
		opts.SafetyFactor = 0.88
	}
	if opts.Hysteresis == 0 {
		opts.Hysteresis = 0.004
	}
	if opts.FeatureSeed == 0 {
		opts.FeatureSeed = opts.Models.FeatureSeed
	}
	if opts.FeatureSeed == 0 {
		opts.FeatureSeed = 1
	}
	if opts.CostWeight == 0 {
		opts.CostWeight = 0.08
	}
	if opts.Policy == PolicyForceFeature && !opts.ForcedFeature.Heavy() {
		return nil, fmt.Errorf("core: ForceFeature needs a heavy feature, got %v", opts.ForcedFeature)
	}
	if opts.RiskQuantile < 0 || opts.RiskQuantile >= 1 {
		return nil, fmt.Errorf("core: RiskQuantile must be in [0, 1), got %v", opts.RiskQuantile)
	}
	s := &Scheduler{
		opts:       opts,
		models:     opts.Models,
		ex:         feat.NewExtractor(opts.FeatureSeed),
		sensor:     NewContentionSensorAlpha(opts.SensorAlpha),
		featureUse: map[feat.Kind]int{},
		adapter:    opts.Adapter,
		scrHeavy:   map[feat.Kind][]float64{},
	}
	if s.adapter == nil && opts.Adapt != nil {
		s.adapter = adapt.New(*opts.Adapt, opts.Models)
	}
	if opts.RiskQuantile > 0 {
		s.riskZ = glm.NormalQuantile(opts.RiskQuantile)
	}
	s.SetObserver(opts.Observer)
	return s, nil
}

// SetObserver attaches (or detaches, with nil) the scheduler's
// observability view. Normally set via Options.Observer; exposed so a
// pipeline built without one can be wired after construction. Must be
// called before the first Decide.
func (s *Scheduler) SetObserver(so *obs.StreamObserver) {
	s.opts.Observer = so
	s.decisionsCtr, s.fallbackCtr, s.featureCtr = nil, nil, nil
	s.wdCtr, s.brkOpenCtr, s.extractFailCtr, s.degradedCtr = nil, nil, nil, nil
	if r := so.Registry(); r != nil {
		s.decisionsCtr = r.Counter("sched_decisions_total")
		s.fallbackCtr = r.Counter("sched_fallback_total")
		s.featureCtr = map[feat.Kind]*obs.Counter{}
		for _, k := range feat.HeavyKinds() {
			s.featureCtr[k] = r.Counter(`sched_feature_use_total{feature="` + k.String() + `"}`)
		}
		s.wdCtr = r.Counter("sched_watchdog_overruns_total")
		s.brkOpenCtr = r.Counter("sched_breaker_opens_total")
		s.extractFailCtr = r.Counter("sched_extract_failures_total")
		s.degradedCtr = r.Counter("sched_degraded_decisions_total")
	}
	if s.adapter != nil {
		s.adapter.SetMetrics(so.Registry())
	}
}

// Options returns the scheduler's options with New's defaults
// resolved.
func (s *Scheduler) Options() Options { return s.opts }

// Adapter returns the attached online adapter (nil when adaptation is
// off).
func (s *Scheduler) Adapter() *adapt.Adapter { return s.adapter }

// AdaptActive implements harness.OutcomeFeedback: it gates the
// stepper's extra per-GoF accounting to adaptive runs.
func (s *Scheduler) AdaptActive() bool { return s.adapter != nil }

// ObserveGoFOutcome implements harness.OutcomeFeedback: the realized
// GoF outcome feeds the adapter's residual collector and refit loop,
// and — this being a GoF barrier — any promotion or demotion the
// adapter decides takes effect here, before the next decision.
func (s *Scheduler) ObserveGoFOutcome(o harness.GoFOutcome) {
	if s.adapter == nil {
		return
	}
	m, changed := s.adapter.ObserveOutcome(adapt.Outcome{
		Frames:    o.Frames,
		AvgMS:     o.AvgMS,
		MeanAP:    o.MeanAP,
		HasAcc:    o.HasAcc,
		DetBaseMS: o.DetBaseMS,
		TrkBaseMS: o.TrkBaseMS,
	})
	if changed {
		s.models = m
	}
}

// ObserveSwitch implements harness.SwitchFeedback, refreshing the
// adapter's observed C(b0, b) table with realized switch costs.
func (s *Scheduler) ObserveSwitch(from, to mbek.Branch, costMS float64) {
	if s.adapter != nil {
		s.adapter.ObserveSwitch(from, to, costMS)
	}
}

// switchRow is the cached C(cur, ·) row and the state it was priced
// under.
type switchRow struct {
	row   []float64
	cur   mbek.Branch
	idx   int          // cur's index in the space, -1 when absent
	space *mbek.Branch // &branches[0] of the space the row prices
	rev   int          // the adapter's SwitchRev at pricing time
	valid bool
}

// switchRow returns C(cur, ·) over the model's branches, and cur's index
// among them (-1 when absent): the adapter's
// observed estimate for each pair that has enough samples, the offline
// C(b0, b) model otherwise. The row is repriced only when the current
// branch, the branch space or the adapter's switch table changed since
// the last call, so it always equals a fresh pricing.
func (s *Scheduler) switchRow(cur mbek.Branch) ([]float64, int) {
	bs := s.models.Branches
	rev := 0
	if s.adapter != nil {
		rev = s.adapter.SwitchRev()
	}
	sw := &s.sw
	if sw.valid && sw.cur == cur && sw.space == &bs[0] && len(sw.row) == len(bs) && sw.rev == rev {
		return sw.row, sw.idx
	}
	sw.row = mbek.SwitchCostRow(slices.Grow(sw.row[:0], len(bs))[:len(bs)], cur, bs)
	sw.idx = -1
	for bi, b := range bs {
		if b == cur {
			sw.idx = bi
		}
		if s.adapter != nil {
			if ms, ok := s.adapter.SwitchCostMS(cur, b); ok {
				sw.row[bi] = ms
			}
		}
	}
	sw.cur, sw.space, sw.rev, sw.valid = cur, &bs[0], rev, true
	return sw.row, sw.idx
}

// SetInjector attaches the stream's fault injector (nil detaches) and
// resets the graceful-degradation state — watchdog ladder, overrun
// tally, breaker — so each run starts healthy. Must be called before
// the first Decide of a run.
func (s *Scheduler) SetInjector(inj *fault.Injector) {
	s.inj = inj
	s.brk = nil
	s.degradeLevel = 0
	s.overruns = 0
	s.lastHeavy = false
	if s.degradationActive() {
		// Build the fresh breaker now rather than on the first GoF, so
		// seeding its random source stays off the per-GoF path.
		s.ensureBreaker()
	}
}

// degradationActive reports whether the watchdog and breaker are live.
func (s *Scheduler) degradationActive() bool {
	switch s.opts.Degrade {
	case DegradeOn:
		return true
	case DegradeOff:
		return false
	}
	return s.inj != nil
}

// ensureBreaker lazily builds the circuit breaker, seeded by the
// feature seed so the half-open probe jitter is deterministic.
func (s *Scheduler) ensureBreaker() {
	if s.brk == nil {
		s.brk = newBreaker(s.opts.BreakerK, s.opts.BreakerCooldown, s.opts.FeatureSeed)
	}
}

// breakerBad records a bad heavy outcome and counts a trip if it opened
// the circuit.
func (s *Scheduler) breakerBad() {
	if s.brk == nil {
		return
	}
	before := s.brk.opens
	s.brk.recordBad()
	if s.brk.opens > before {
		s.brkOpenCtr.Inc()
	}
}

// ObserveGoF feeds the realized outcome of the previous GoF back into
// the watchdog: an over-SLO GoF pushes the scheduler one rung down the
// branch ladder (and charges the breaker if heavy features were used),
// a within-budget GoF climbs one rung back up. The harness calls it at
// every GoF flush; it is a no-op unless degradation is active.
func (s *Scheduler) ObserveGoF(frames int, avgMS float64) {
	if !s.degradationActive() || frames <= 0 {
		return
	}
	heavy := s.lastHeavy
	s.lastHeavy = false
	s.ensureBreaker()
	overrun := avgMS > s.opts.SLO
	s.degradeLevel = LadderStep(s.degradeLevel, overrun)
	switch {
	case overrun:
		s.overruns++
		s.wdCtr.Inc()
		if heavy {
			s.breakerBad()
		}
	case heavy:
		s.brk.recordGood()
	}
}

// Overruns returns how many realized GoFs blew the SLO while the
// watchdog was active.
func (s *Scheduler) Overruns() int { return s.overruns }

// DegradeLevel returns the watchdog's current branch-ladder level
// (0 = normal operation).
func (s *Scheduler) DegradeLevel() int { return s.degradeLevel }

// BreakerOpens returns how many times the heavy-feature circuit
// breaker tripped.
func (s *Scheduler) BreakerOpens() int {
	if s.brk == nil {
		return 0
	}
	return s.brk.opens
}

// Name returns the variant name.
func (s *Scheduler) Name() string {
	if s.opts.Policy == PolicyForceFeature {
		return fmt.Sprintf("LiteReconfig-Force-%s", s.opts.ForcedFeature)
	}
	return s.opts.Policy.String()
}

// FeatureUse returns how many decisions used each heavy feature.
func (s *Scheduler) FeatureUse() map[feat.Kind]int {
	out := make(map[feat.Kind]int, len(s.featureUse))
	for k, v := range s.featureUse {
		out[k] = v
	}
	return out
}

// Decisions returns the number of scheduling decisions taken.
func (s *Scheduler) Decisions() int { return s.decisions }

// assumedDevice is the device profile the scheduler plans for.
func (s *Scheduler) assumedDevice(clock *simlat.Clock) simlat.Device {
	if s.opts.AssumedDevice != nil {
		return *s.opts.AssumedDevice
	}
	return clock.Device()
}

// pricing holds the per-decision constants of estimate: the planning
// device's speed factors, the contention multiplier of the scheduler's
// view of contention, and the CPU drift ratio. None of them changes
// within a decision, so Decide reads them once instead of per estimate.
type pricing struct {
	gpuFactor, gpuMult float64
	cpuFactor, cpuMult float64
	cpuDrift           bool // multiply CPU estimates by cpuMult
}

// prices captures the current constants: the sensed contention by
// default, the simulator's ground truth with OracleContention.
func (s *Scheduler) prices(clock *simlat.Clock) pricing {
	dev := s.assumedDevice(clock)
	g := s.sensor.Level()
	if s.opts.OracleContention {
		g = clock.Contention()
	}
	p := pricing{
		gpuFactor: dev.Factor(simlat.GPU),
		gpuMult:   simlat.ContentionMultiplier(g),
		cpuFactor: dev.Factor(simlat.CPU),
	}
	if s.drift != nil && !s.opts.DisableDriftCompensation {
		p.cpuMult, p.cpuDrift = s.drift.Ratio(), true
	}
	return p
}

// estimate prices a base cost under the device and the scheduler's view
// of contention (GPU) or drift (CPU), as (base·factor)·multiplier.
func (p *pricing) estimate(class simlat.OpClass, baseMS float64) float64 {
	if baseMS <= 0 {
		return 0
	}
	if class == simlat.GPU {
		return baseMS * p.gpuFactor * p.gpuMult
	}
	est := baseMS * p.cpuFactor
	if p.cpuDrift {
		est *= p.cpuMult
	}
	return est
}

// Decide selects the execution branch for the upcoming GoF starting at
// frame f. It charges all scheduler work (feature extraction, model
// inference) to the clock and returns the branch the kernel should run.
// Must be called at a GoF boundary.
func (s *Scheduler) Decide(k *mbek.Kernel, clock *simlat.Clock, v *vid.Video, f vid.Frame) mbek.Branch {
	s.decisions++
	s.decisionsCtr.Inc()
	sect := clock.StartSection()

	// Sense contention from the previous GoF's detector pass (Sec. 2.3:
	// the scheduler must adapt to resource contention it cannot directly
	// observe), and CPU-side drift from its tracker steps (Sec. 6).
	if actual, base := k.LastDetectorObservation(); actual > 0 {
		s.sensor.Observe(s.assumedDevice(clock), actual, base)
	}
	if s.drift == nil {
		s.drift = NewCPUDriftEstimatorAlpha(s.assumedDevice(clock), s.opts.DriftAlpha)
	}
	if actual, base := k.LastTrackerObservation(); actual > 0 {
		s.drift.Observe(actual, base)
	}

	// Step 1: light features and the models that ride on them.
	lightSpec := feat.SpecOf(feat.Light)
	clock.Charge(CompScheduler, lightSpec.ExtractClass, lightSpec.ExtractMS)
	s.scrLight = feat.LightVectorInto(s.scrLight, v, f)
	light := s.scrLight
	clock.Charge(CompScheduler, lightSpec.PredictClass, lightSpec.PredictMS)
	s.scrLightNorm = s.models.LightNorm.ApplyInto(s.scrLightNorm, light)
	s.scrAccLight = s.models.PredictAccuracyNormInto(s.scrAccLight, s.scrLightNorm)
	accLight := s.scrAccLight
	pr := s.prices(clock)

	// Per-branch kernel latency estimate under the current device and
	// contention level: detector share scales with GPU contention, the
	// tracker share does not (Eq. 2's L0(b, f_L)).
	n := len(s.models.Branches)
	s.scrKernelMS = slices.Grow(s.scrKernelMS[:0], n)[:n]
	kernelMS := s.scrKernelMS
	cpuAdj := s.models.CPUAdjFactor()
	for bi := range s.models.Branches {
		det, trk := s.models.PredictLatency(bi, light)
		kernelMS[bi] = pr.estimate(simlat.GPU, det) +
			pr.estimate(simlat.CPU, trk)*cpuAdj +
			s.models.LatencyBiasMS(bi)
	}

	// The input of the decision procedure (decide.go): the knobs, the
	// prediction tables above, C(cur, ·) through the adapter override,
	// and the heavy-feature price table, each computed once per decision.
	cur, hasCur := k.Branch(), k.HasBranch()
	in := &s.in
	*in = DecisionInput{
		Branches:     s.models.Branches,
		Ben:          s.models.Ben,
		BudgetMS:     s.opts.SLO * s.opts.SafetyFactor,
		SLOMS:        s.opts.SLO,
		SafetyFactor: s.opts.SafetyFactor,
		Hysteresis:   s.opts.Hysteresis,
		CostWeight:   s.opts.CostWeight,
		S0MS: pr.estimate(lightSpec.ExtractClass, lightSpec.ExtractMS) +
			pr.estimate(lightSpec.PredictClass, lightSpec.PredictMS),
		Policy:         s.opts.Policy,
		Forced:         s.opts.ForcedFeature,
		ManageOverhead: s.opts.Policy.ManagesOverhead(),
		NoSwitch:       s.opts.DisableSwitchCost,
		Cur:            -1,
		HasCur:         hasCur,
		AccLight:       accLight,
		KernelMS:       kernelMS,
	}
	if hasCur {
		in.SwitchMS, in.Cur = s.switchRow(cur)
	}
	for _, kind := range heavyKinds {
		spec := feat.SpecOf(kind)
		in.FeatCostMS[kind] = pr.estimate(spec.ExtractClass, spec.ExtractSharedMS) +
			pr.estimate(spec.PredictClass, spec.PredictMS)
	}

	// Risk tables for probabilistic admission. The quantile factor lifts
	// each branch's kernel estimate to its q-quantile under the
	// lognormal residual model — the margin scales multiplicatively, so
	// a contention-inflated estimate gets a contention-inflated margin.
	// The feature-selection analyzer stays risk-blind: it estimates
	// benefit, not admission; only the constrained optimization admits
	// branches.
	riskOn := s.opts.RiskQuantile > 0
	if riskOn {
		s.scrRiskF = slices.Grow(s.scrRiskF[:0], n)[:n]
		s.scrFailP = slices.Grow(s.scrFailP[:0], n)[:n]
		in.RiskF, in.FailP = s.scrRiskF, s.scrFailP
		for bi := range s.models.Branches {
			in.RiskF[bi] = s.models.QuantileFactor(bi, s.riskZ)
			in.FailP[bi] = s.models.PredictFailProb(bi, light)
		}
	}

	// Graceful degradation: advance the breaker's cooldown and read the
	// state this decision plans under. The watchdog ladder (fed by
	// ObserveGoF) and an open breaker both pull the heavy-feature path.
	degrading := s.degradationActive()
	brkState := breakerClosed
	if degrading {
		s.ensureBreaker()
		s.brk.tick()
		in.DegradeLevel = s.degradeLevel
		in.BreakerOpen = s.brk.state == breakerOpen
		brkState = s.brk.state
		if in.DegradeLevel > 0 {
			s.degradedCtr.Inc()
		}
	}

	// Step 2: decide the heavy feature set.
	selected, benefit := in.SelectFeatures(&s.scrSel)
	for _, kind := range selected {
		s.featureUse[kind]++
		s.featureCtr[kind].Inc()
	}

	// Step 3: extract selected features and run their accuracy models.
	// An injected extraction failure still pays the extraction cost (the
	// work was attempted) but yields no vector and skips the prediction
	// model; the accuracy set falls back to whatever survived. Features
	// the MBEK's own detector produces are priced at their shared cost
	// (the scheduler always runs right before a detector frame).
	heavy := s.scrHeavy
	for k := range heavy {
		delete(heavy, k)
	}
	extracted := s.scrExtracted[:0]
	failed := s.scrFailed[:0]
	for _, kind := range selected {
		spec := feat.SpecOf(kind)
		if !s.opts.IgnoreFeatureOverhead {
			clock.Charge(CompScheduler, spec.ExtractClass, spec.ExtractSharedMS)
		}
		if s.inj.ExtractFails(f.Index, kind.String()) {
			failed = append(failed, kind)
			s.extractFailCtr.Inc()
			continue
		}
		if !s.opts.IgnoreFeatureOverhead {
			clock.Charge(CompScheduler, spec.PredictClass, spec.PredictMS)
		}
		s.scrVec[kind] = s.ex.ExtractInto(s.scrVec[kind], kind, v, f)
		heavy[kind] = s.scrVec[kind]
		extracted = append(extracted, kind)
	}
	s.scrExtracted, s.scrFailed = extracted, failed
	if degrading {
		if len(failed) > 0 {
			s.breakerBad()
		} else if len(extracted) > 0 {
			s.brk.recordGood()
		}
		s.lastHeavy = len(extracted) > 0
	}
	s.scrAcc = s.models.PredictAccuracySetInto(s.scrAcc, extracted, accLight, s.scrLightNorm, heavy)
	in.Acc = s.scrAcc

	// Step 4: constrained optimization (Eq. 3).
	in.SchedSpentMS = sect.Elapsed()
	ch := in.ChooseBranch()
	best := ch.Branch
	if ch.Fallback {
		s.fallbackCtr.Inc()
	}

	if s.adapter != nil {
		// Record the decision's context for the residual collector: the
		// chosen branch, the light features its latency came from, and
		// the scale factors that turn base costs into realized
		// milliseconds, so the refit can normalize them back out. The
		// adapter also shadow-prices the challenger here (predict-only).
		over := 0.0
		if in.ManageOverhead {
			over = in.overheadMS(best)
		}
		s.adapter.Begin(adapt.Sample{
			Branch:     best,
			Light:      light,
			GPUScale:   pr.estimate(simlat.GPU, 1),
			CPUScale:   pr.estimate(simlat.CPU, 1),
			OverheadMS: over,
			PredMS:     ch.PredMS,
			PredAcc:    in.Acc[best],
		})
	}

	if d := s.opts.Observer.Pending(); d != nil {
		d.Policy = s.Name()
		if s.opts.OracleContention {
			d.Contention = clock.Contention()
		} else {
			d.Contention = s.sensor.Level()
		}
		for _, kind := range selected {
			d.Features = append(d.Features, kind.String())
			d.FeatureCostMS += in.FeatCostMS[kind]
		}
		d.BenefitMAP = benefit
		d.PredAccuracy = in.Acc[best]
		d.PredLatencyMS = ch.PredMS
		d.FeasibleBranches = ch.Feasible
		if s.adapter != nil {
			d.AdaptVersion = s.adapter.VersionLabel()
			d.AdaptEvent = s.adapter.TakeEvent()
			d.AdaptChampErrMS = s.adapter.ChampErrMS()
			d.AdaptChalErrMS = s.adapter.ChalErrMS()
		}
		d.Fallback = ch.Fallback
		d.SchedMS = sect.Elapsed()
		d.Degrade = in.DegradeLevel
		if riskOn {
			d.RiskQ = s.opts.RiskQuantile
			d.PredP95MS = ch.PredMS + in.riskMarginMS(best)
			d.FailProb = in.FailP[best]
		}
		if brkState != breakerClosed {
			d.Breaker = brkState.String()
		}
		for _, kind := range failed {
			d.FailedFeatures = append(d.FailedFeatures, kind.String())
		}
		if s.opts.ReplayTrace {
			d.Replay = s.replayPayload(&pr, cur, cpuAdj, light, extracted, heavy)
		}
	}
	return s.models.Branches[best]
}

// replayPayload captures the decision's full input set for
// counterfactual replay. Everything is copied — the scratch slices are
// reused by the next Decide — and every read is passive, so the
// decision stream is identical with capture off.
func (s *Scheduler) replayPayload(pr *pricing, cur mbek.Branch, cpuAdj float64,
	light []float64, extracted []feat.Kind, heavy map[feat.Kind][]float64) *obs.ReplayPayload {
	in := &s.in
	rp := &obs.ReplayPayload{
		SLOMS:             in.SLOMS,
		SafetyFactor:      in.SafetyFactor,
		BudgetMS:          in.BudgetMS,
		Hysteresis:        in.Hysteresis,
		CostWeight:        in.CostWeight,
		S0MS:              in.S0MS,
		SchedSpentMS:      in.SchedSpentMS,
		ManageOverhead:    in.ManageOverhead,
		DisableSwitchCost: in.NoSwitch,
		HasCur:            in.HasCur,
		GPUScale:          pr.estimate(simlat.GPU, 1),
		CPUScale:          pr.estimate(simlat.CPU, 1),
		CPUAdj:            cpuAdj,
		NumBranches:       len(in.Branches),
		Light:             append([]float64(nil), light...),
		AccLight:          append([]float64(nil), in.AccLight...),
		KernelMS:          append([]float64(nil), in.KernelMS...),
	}
	if in.HasCur {
		rp.CurBranch = cur.String()
		rp.SwitchMS = append([]float64(nil), in.SwitchMS...)
	}
	if len(extracted) > 0 {
		rp.Acc = append([]float64(nil), in.Acc...)
		rp.Heavy = make(map[string][]float64, len(extracted))
		for _, kind := range extracted {
			rp.Heavy[kind.String()] = append([]float64(nil), heavy[kind]...)
		}
	}
	rp.FeatCostMS = make(map[string]float64, len(heavyKinds))
	for _, kind := range heavyKinds {
		rp.FeatCostMS[kind.String()] = in.FeatCostMS[kind]
	}
	if in.RiskF != nil {
		// Risk-admitted corpora are versioned (PolicyRev 1) and carry the
		// exact per-branch inflation factors and failure probabilities the
		// admission used, so identity replay runs the risk procedure
		// without re-deriving variance state, and legacy corpora
		// (PolicyRev 0, fields absent) keep replaying under mean
		// admission bit-exactly.
		rp.PolicyRev = 1
		rp.RiskQ = s.opts.RiskQuantile
		rp.RiskFactor = append([]float64(nil), in.RiskF...)
		rp.FailProb = append([]float64(nil), in.FailP...)
	}
	return rp
}
