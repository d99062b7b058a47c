package adapt

import (
	"fmt"
	"math"
	"sync/atomic"

	"litereconfig/internal/glm"
	"litereconfig/internal/mbek"
	"litereconfig/internal/obs"
	"litereconfig/internal/sched"
)

// varForget is the exponential forgetting factor applied to a branch's
// residual-variance accumulator before each online update: a ~200-GoF
// effective window, long enough for a stable p95 margin, short enough
// that a contention-regime change re-widens the interval within a few
// seconds of simulated time.
const varForget = 0.995

// Config tunes one stream's online adapter. The zero value of every
// field means its default; pass the zero Config for the stock tuning.
type Config struct {
	// Label names the owning stream; it prefixes version labels
	// ("s3.v2") so concurrent streams never collide in a shared
	// registry. Default "s".
	Label string
	// Registry, when set, receives every promoted snapshot. One
	// registry is shared by all streams of a board.
	Registry *Registry
	// Gate, when set, must be true for promotions (and demotions) to
	// fire; refit and shadow scoring continue regardless. The fleet
	// layer uses it to stage rollout board by board.
	Gate *atomic.Bool

	// WarmupSamples is how many GoF outcomes the adapter only watches
	// before it starts refitting: the contention and drift EWMAs are
	// still converging then, and residuals computed against a cold
	// sensor would bake the (soon-to-be-sensed) drift into the
	// challenger's coefficients — double compensation. Default 4.
	WarmupSamples int
	// MinSamples is how many shadow-scored GoF outcomes the challenger
	// needs before it may be promoted. Default 12.
	MinSamples int
	// PromoteWindow is the hysteresis window: the challenger's shadow
	// error must beat the champion's by Margin for this many consecutive
	// GoF barriers. Default 4.
	PromoteWindow int
	// Margin is the relative shadow-error improvement required for
	// promotion (0.08 = 8% better). Default 0.08.
	Margin float64
	// DemoteWindow and DemoteMargin govern rollback: once the live
	// champion's shadow error exceeds its promotion-time error by
	// DemoteMargin (relative) for DemoteWindow consecutive barriers, the
	// previous champion is restored. Defaults 8 and 0.3.
	DemoteWindow int
	DemoteMargin float64

	// ErrAlpha smooths the shadow-error EWMAs. Default 0.15.
	ErrAlpha float64
	// BiasAlpha smooths the per-branch additive latency bias. Default 0.1.
	BiasAlpha float64
	// CPUAdjAlpha smooths the global CPU-side latency multiplier. Each
	// GoF yields an exact implied multiplier (base-cost shares are
	// known, so the only noise is clock jitter), hence a fairly fast
	// default of 0.4.
	CPUAdjAlpha float64
	// AccAlpha smooths the accuracy-recalibration moment estimates.
	// Default 0.1.
	AccAlpha float64
	// Forget is the RLS exponential forgetting factor. Default 0.995.
	Forget float64
	// Delta scales the RLS prior covariance delta·I: larger adapts
	// faster away from the offline fit. Default 10.
	Delta float64
	// MaxBiasMS clamps the learned per-branch latency bias. Default 30.
	MaxBiasMS float64
	// SwitchAlpha smooths observed switch costs; SwitchMinSamples is how
	// many observations a (from, to) pair needs before the observed
	// estimate overrides the C(b0, b) model. Defaults 0.3 and 2.
	SwitchAlpha      float64
	SwitchMinSamples int
}

func (c *Config) applyDefaults() {
	if c.Label == "" {
		c.Label = "s"
	}
	if c.WarmupSamples == 0 {
		c.WarmupSamples = 4
	}
	if c.MinSamples == 0 {
		c.MinSamples = 12
	}
	if c.PromoteWindow == 0 {
		c.PromoteWindow = 4
	}
	if c.Margin == 0 {
		c.Margin = 0.08
	}
	if c.DemoteWindow == 0 {
		c.DemoteWindow = 8
	}
	if c.DemoteMargin == 0 {
		c.DemoteMargin = 0.3
	}
	if c.ErrAlpha == 0 {
		c.ErrAlpha = 0.15
	}
	if c.BiasAlpha == 0 {
		c.BiasAlpha = 0.1
	}
	if c.CPUAdjAlpha == 0 {
		c.CPUAdjAlpha = 0.4
	}
	if c.AccAlpha == 0 {
		c.AccAlpha = 0.1
	}
	if c.Forget == 0 {
		c.Forget = 0.995
	}
	if c.Delta == 0 {
		c.Delta = 10
	}
	if c.MaxBiasMS == 0 {
		c.MaxBiasMS = 30
	}
	if c.SwitchAlpha == 0 {
		c.SwitchAlpha = 0.3
	}
	if c.SwitchMinSamples == 0 {
		c.SwitchMinSamples = 2
	}
}

// Sample is one decision's context, recorded by the scheduler at the
// GoF boundary and matched with the GoF's realized outcome at the next
// barrier.
type Sample struct {
	// Branch is the chosen branch's index.
	Branch int
	// Light is the light feature vector the latency regressions saw.
	Light []float64
	// GPUScale and CPUScale are the multipliers the scheduler applied
	// on top of the base-cost regressions (device factor × contention
	// multiplier, device factor × drift ratio). They let the adapter
	// normalize realized costs back to base-cost units, so RLS learns
	// only what the EWMA sensors cannot explain.
	GPUScale float64
	CPUScale float64
	// OverheadMS is the amortized per-frame scheduler + switching
	// overhead included in PredMS.
	OverheadMS float64
	// PredMS is the champion's per-frame latency prediction for the
	// chosen branch; PredAcc its (calibrated) accuracy prediction.
	PredMS  float64
	PredAcc float64

	chalMS float64 // challenger's shadow prediction, filled by Begin
}

// Outcome is one GoF's realized result, delivered at the next barrier.
type Outcome struct {
	// Frames is the GoF's executed frame count; AvgMS its realized mean
	// per-frame latency.
	Frames int
	AvgMS  float64
	// MeanAP is the GoF's realized detection accuracy; HasAcc marks it
	// valid (ground truth may be absent).
	MeanAP float64
	HasAcc bool
	// DetBaseMS and TrkBaseMS are the GoF's total detector and tracker
	// cost in base units (TX2, zero contention), exact deltas of the
	// kernel's cumulative base-cost counters. TrkBaseMS is zero for a
	// detect-every-frame GoF.
	DetBaseMS float64
	TrkBaseMS float64
}

// branchPair keys the observed switch-cost table.
type branchPair struct{ from, to mbek.Branch }

type switchEstimate struct {
	ms float64
	n  int
}

// Adapter closes the adaptation loop for one stream. It shadows every
// decision, refits a challenger copy of the models from realized
// outcomes, and swaps the challenger in as champion only at GoF
// barriers once it provably predicts better. An Adapter is used from
// one stream's goroutine, like the Scheduler that owns it; only the
// promotion Gate and the shared Registry are cross-stream safe.
type Adapter struct {
	cfg Config

	champion   *sched.Models
	challenger *sched.Models
	detRLS     []*RLS
	trkRLS     []*RLS

	pending Sample
	// lightBuf backs pending.Light: the scheduler passes its own
	// reusable scratch in Begin, and every consumer of the pending
	// sample (shadow pricing, RLS refit) reads it synchronously, so one
	// adapter-owned buffer reused per decision suffices.
	lightBuf   []float64
	hasPending bool

	// Shadow scoring: EWMAs of |predicted − realized| per-frame GoF
	// latency for champion and challenger.
	champErr float64
	chalErr  float64
	errWarm  bool
	shadowN  int

	promoteStreak int
	demoteStreak  int
	// Rollback state: the previous champion and the promoted champion's
	// shadow error at promotion time.
	prevChampion *sched.Models
	prevLabel    string
	promErr      float64

	// Accuracy recalibration moments: EWMA of x (de-calibrated
	// prediction), y (realized AP), x², x·y.
	accMX, accMY, accMXX, accMXY float64
	accN                         int

	switches  map[branchPair]*switchEstimate
	switchRev int // bumped on every change to switches

	versionLabel string
	promSeq      int
	promotions   int
	demotions    int
	refits       int
	samples      int
	event        string // pending trace event: "promote" or "demote"

	samplesCtr *obs.Counter
	refitsCtr  *obs.Counter
	promoteCtr *obs.Counter
	demoteCtr  *obs.Counter
}

// New builds an adapter around the live models: models stays the
// champion the scheduler reads, and a challenger copy of it (sharing
// the read-only networks, owning its latency-model state) becomes the
// one the adapter refits.
func New(cfg Config, models *sched.Models) *Adapter {
	cfg.applyDefaults()
	a := &Adapter{
		cfg:          cfg,
		champion:     models,
		challenger:   models.RefitClone(),
		switches:     map[branchPair]*switchEstimate{},
		versionLabel: "v0",
	}
	a.buildRLS()
	return a
}

// buildRLS seeds the per-branch RLS banks from the challenger's
// current regression coefficients.
func (a *Adapter) buildRLS() {
	n := len(a.challenger.Branches)
	a.detRLS = make([]*RLS, n)
	a.trkRLS = make([]*RLS, n)
	for bi := 0; bi < n; bi++ {
		d := a.challenger.LatDet[bi]
		t := a.challenger.LatTrk[bi]
		a.detRLS[bi] = NewRLS(d.Coef, d.Intercept, a.cfg.Forget, a.cfg.Delta)
		a.trkRLS[bi] = NewRLS(t.Coef, t.Intercept, a.cfg.Forget, a.cfg.Delta)
	}
	if a.challenger.LatBiasMS == nil {
		a.challenger.LatBiasMS = make([]float64, n)
	}
}

// SetMetrics caches the adapt_* counters on the given registry (nil
// detaches).
func (a *Adapter) SetMetrics(r *obs.Registry) {
	a.samplesCtr, a.refitsCtr, a.promoteCtr, a.demoteCtr = nil, nil, nil, nil
	if r != nil {
		a.samplesCtr = r.Counter("adapt_samples_total")
		a.refitsCtr = r.Counter("adapt_refits_total")
		a.promoteCtr = r.Counter("adapt_promotions_total")
		a.demoteCtr = r.Counter("adapt_demotions_total")
	}
}

// SetRegistry re-points the adapter at another board's registry — the
// migration path: a stream hands its learned champion over, future
// promotions commit to the destination board.
func (a *Adapter) SetRegistry(r *Registry) { a.cfg.Registry = r }

// SetGate swaps the promotion gate (nil = always allowed).
func (a *Adapter) SetGate(g *atomic.Bool) { a.cfg.Gate = g }

// gateOpen reports whether rollout actions may fire.
func (a *Adapter) gateOpen() bool {
	return a.cfg.Gate == nil || a.cfg.Gate.Load()
}

// Champion returns the models the scheduler should currently serve
// from.
func (a *Adapter) Champion() *sched.Models { return a.champion }

// Begin records one decision's context and shadow-prices the
// challenger on the same branch (predict-only — nothing is charged to
// the clock and nothing executes).
func (a *Adapter) Begin(s Sample) {
	det, trk := a.challenger.PredictLatency(s.Branch, s.Light)
	s.chalMS = det*s.GPUScale + trk*s.CPUScale*a.challenger.CPUAdjFactor() +
		s.OverheadMS + a.challenger.LatencyBiasMS(s.Branch)
	// The scheduler hands us its reusable light-feature scratch; the
	// sample is retained until ObserveOutcome, so keep our own copy in a
	// buffer reused across decisions.
	a.lightBuf = append(a.lightBuf[:0], s.Light...)
	s.Light = a.lightBuf
	a.pending = s
	a.hasPending = true
}

// ObserveSwitch feeds one realized branch-switch cost into the observed
// C(b0, b) table. Cold-miss spikes are clamped to a multiple of the
// model cost so one pathological hand-off cannot poison the estimate.
func (a *Adapter) ObserveSwitch(from, to mbek.Branch, costMS float64) {
	if costMS <= 0 {
		return
	}
	model := mbek.SwitchCostMS(from, to)
	if limit := 4*model + 10; costMS > limit {
		costMS = limit
	}
	a.switchRev++
	key := branchPair{from, to}
	e := a.switches[key]
	if e == nil {
		a.switches[key] = &switchEstimate{ms: costMS, n: 1}
		return
	}
	e.ms = (1-a.cfg.SwitchAlpha)*e.ms + a.cfg.SwitchAlpha*costMS
	e.n++
}

// SwitchRev counts the changes to the observed C(b0, b) table: a
// caller that caches SwitchCostMS answers reprices when it moves.
func (a *Adapter) SwitchRev() int { return a.switchRev }

// SwitchCostMS returns the observed estimate for a (from, to) pair once
// it has enough samples; ok is false when the scheduler should fall
// back to the offline C(b0, b) model.
func (a *Adapter) SwitchCostMS(from, to mbek.Branch) (ms float64, ok bool) {
	e := a.switches[branchPair{from, to}]
	if e == nil || e.n < a.cfg.SwitchMinSamples {
		return 0, false
	}
	return e.ms, true
}

// ObserveOutcome absorbs one GoF's realized result at the barrier:
// shadow-scores champion and challenger, refits the challenger, and
// runs the champion–challenger state machine. When a promotion or
// demotion fires it returns the new champion and changed=true; the
// scheduler must adopt the returned models before its next decision —
// this barrier hand-off is what keeps fixed-seed runs byte-identical.
func (a *Adapter) ObserveOutcome(o Outcome) (m *sched.Models, changed bool) {
	if !a.hasPending || o.Frames <= 0 {
		a.hasPending = false
		return a.champion, false
	}
	p := a.pending
	a.hasPending = false
	a.samples++
	a.samplesCtr.Inc()

	// Shadow scoring.
	ce := math.Abs(p.PredMS - o.AvgMS)
	che := math.Abs(p.chalMS - o.AvgMS)
	if !a.errWarm {
		a.champErr, a.chalErr = ce, che
		a.errWarm = true
	} else {
		al := a.cfg.ErrAlpha
		a.champErr = (1-al)*a.champErr + al*ce
		a.chalErr = (1-al)*a.chalErr + al*che
	}
	a.shadowN++

	if a.samples > a.cfg.WarmupSamples {
		a.refit(p, o)
	}

	if !a.gateOpen() {
		a.promoteStreak, a.demoteStreak = 0, 0
		return a.champion, false
	}
	if a.tryPromote() {
		return a.champion, true
	}
	if a.tryDemote() {
		return a.champion, true
	}
	return a.champion, false
}

// refit folds one (sample, outcome) pair into the challenger.
func (a *Adapter) refit(p Sample, o Outcome) {
	bi := p.Branch
	if bi < 0 || bi >= len(a.challenger.Branches) {
		return
	}
	did := false

	// L0(b, f_L) coefficients: RLS toward the executed GoF's per-frame
	// base-cost shares — the same label convention the offline fit used
	// (detector pass amortized over the GoF, tracker steps on the
	// remaining frames). The kernel reports the executed configuration's
	// base costs directly, so these targets are sensor-free: device
	// scaling, contention and drift stay entirely with the EWMA sensors
	// and are never baked into the coefficients.
	if o.DetBaseMS > 0 && o.Frames > 0 {
		a.detRLS[bi].Update(p.Light, o.DetBaseMS/float64(o.Frames))
		d := a.challenger.LatDet[bi]
		d.Intercept = a.detRLS[bi].Coef(d.Coef)
		did = true
	}
	if o.TrkBaseMS > 0 && o.Frames > 1 {
		a.trkRLS[bi].Update(p.Light, o.TrkBaseMS/float64(o.Frames))
		t := a.challenger.LatTrk[bi]
		t.Intercept = a.trkRLS[bi].Coef(t.Coef)
		did = true
	}

	// Global CPU-side multiplier: because the GoF's base-cost shares
	// are known exactly, the realized latency pins down the effective
	// CPU scale the sensors missed (thermal throttle, firmware) up to
	// clock jitter. One shared EWMA generalizes the correction to
	// branches this stream has never executed — the per-branch bias
	// below cannot.
	if o.TrkBaseMS > 0 && o.Frames > 1 {
		fr := float64(o.Frames)
		den := o.TrkBaseMS / fr * p.CPUScale
		if den > 0.5 {
			implied := (o.AvgMS - p.OverheadMS - o.DetBaseMS/fr*p.GPUScale) / den
			implied = math.Max(0.25, math.Min(4, implied))
			cur := a.challenger.CPUAdjFactor()
			a.challenger.LatCPUAdj = (1-a.cfg.CPUAdjAlpha)*cur + a.cfg.CPUAdjAlpha*implied
			did = true
		}
	}

	// Per-branch additive bias: EWMA toward the residual between the
	// realized GoF latency and the challenger's own base prediction —
	// it absorbs everything systematic the regressions miss (amortized
	// overhead error, tracker-count dynamics, profile skew).
	det, trk := a.challenger.PredictLatency(bi, p.Light)
	base := det*p.GPUScale + trk*p.CPUScale*a.challenger.CPUAdjFactor() +
		p.OverheadMS
	resid := o.AvgMS - base
	cur := a.challenger.LatencyBiasMS(bi)
	nb := (1-a.cfg.BiasAlpha)*cur + a.cfg.BiasAlpha*resid
	if nb > a.cfg.MaxBiasMS {
		nb = a.cfg.MaxBiasMS
	} else if nb < -a.cfg.MaxBiasMS {
		nb = -a.cfg.MaxBiasMS
	}
	a.challenger.LatBiasMS[bi] = nb
	did = true

	// Risk interval tracking: one extra accumulator per branch. The
	// realized-vs-predicted log ratio feeds the branch's residual-
	// variance accumulator (after an exponential forgetting step, so
	// drift widens or narrows the interval instead of being averaged
	// away), which is what keeps the q-quantile admission margins
	// calibrated online. Purely additive state: point predictions — and
	// thus every mean-admission decision — are untouched.
	if o.AvgMS > 1e-3 && base > 1e-3 {
		if a.challenger.LatVar == nil {
			a.challenger.LatVar = make([]glm.VarAcc, len(a.challenger.Branches))
		}
		a.challenger.LatVar[bi].Forget(varForget)
		a.challenger.LatVar[bi].Add(math.Log(o.AvgMS / base))
	}

	// A(b, f) recalibration: an EWMA linear regression of realized GoF
	// accuracy on the de-calibrated prediction gives the affine
	// (temperature, bias) pair; uniform across branches, so the argmax
	// ordering the optimizer sees is preserved.
	if o.HasAcc && p.PredAcc > 0.01 {
		scale := a.champion.AccScale
		if scale == 0 {
			scale = 1
		}
		x := (p.PredAcc - a.champion.AccBias) / scale
		y := o.MeanAP
		if a.accN == 0 {
			a.accMX, a.accMY, a.accMXX, a.accMXY = x, y, x*x, x*y
		} else {
			al := a.cfg.AccAlpha
			a.accMX = (1-al)*a.accMX + al*x
			a.accMY = (1-al)*a.accMY + al*y
			a.accMXX = (1-al)*a.accMXX + al*x*x
			a.accMXY = (1-al)*a.accMXY + al*x*y
		}
		a.accN++
		if a.accN >= 8 {
			if v := a.accMXX - a.accMX*a.accMX; v > 1e-6 {
				sc := (a.accMXY - a.accMX*a.accMY) / v
				sc = math.Max(0.25, math.Min(2.5, sc))
				b := a.accMY - sc*a.accMX
				b = math.Max(-0.5, math.Min(0.5, b))
				a.challenger.AccScale, a.challenger.AccBias = sc, b
				did = true
			}
		}
	}

	if did {
		a.refits++
		a.refitsCtr.Inc()
	}
}

// tryPromote advances the promotion hysteresis and fires the swap once
// the challenger has beaten the champion by the margin for the whole
// window. The promoted snapshot is frozen and committed to the
// registry; a fresh clone takes over as challenger.
func (a *Adapter) tryPromote() bool {
	if a.shadowN >= a.cfg.MinSamples && a.chalErr < a.champErr*(1-a.cfg.Margin) {
		a.promoteStreak++
	} else {
		a.promoteStreak = 0
	}
	if a.promoteStreak < a.cfg.PromoteWindow {
		return false
	}
	next := a.challenger.RefitClone()
	a.promSeq++
	label := fmt.Sprintf("%s.v%d", a.cfg.Label, a.promSeq)
	v := Version{
		Label:      label,
		Parent:     a.versionLabel,
		Source:     "promote",
		Stream:     a.cfg.Label,
		Seq:        a.promSeq,
		ChampErrMS: a.champErr,
		ChalErrMS:  a.chalErr,
		Samples:    a.shadowN,
	}
	if r := a.cfg.Registry; r != nil {
		_ = r.Commit(v, a.challenger)
		r.promotions.Add(1)
	}
	a.prevChampion = a.champion
	a.prevLabel = a.versionLabel
	a.promErr = a.chalErr
	a.champion = a.challenger
	a.challenger = next
	a.versionLabel = label
	a.champErr = a.chalErr
	a.promoteStreak, a.demoteStreak = 0, 0
	a.promotions++
	a.promoteCtr.Inc()
	a.event = "promote"
	return true
}

// tryDemote rolls the previous champion back when the live champion's
// shadow error has regressed past its promotion-time error by the
// demotion margin for a full window.
func (a *Adapter) tryDemote() bool {
	if a.prevChampion == nil {
		return false
	}
	if a.champErr > a.promErr*(1+a.cfg.DemoteMargin) {
		a.demoteStreak++
	} else {
		a.demoteStreak = 0
	}
	if a.demoteStreak < a.cfg.DemoteWindow {
		return false
	}
	chal := a.prevChampion.RefitClone()
	a.champion = a.prevChampion
	a.versionLabel = a.prevLabel
	a.challenger = chal
	a.buildRLS()
	a.prevChampion = nil
	a.errWarm = false
	a.champErr, a.chalErr = 0, 0
	a.shadowN = 0
	a.promoteStreak, a.demoteStreak = 0, 0
	a.demotions++
	a.demoteCtr.Inc()
	if r := a.cfg.Registry; r != nil {
		r.demotions.Add(1)
	}
	a.event = "demote"
	return true
}

// TakeEvent returns and clears the pending rollout trace event
// ("promote" or "demote", set at the previous barrier).
func (a *Adapter) TakeEvent() string {
	e := a.event
	a.event = ""
	return e
}

// VersionLabel returns the champion's registry label ("v0" until the
// first promotion).
func (a *Adapter) VersionLabel() string { return a.versionLabel }

// ChampErrMS and ChalErrMS return the current shadow-error EWMAs.
func (a *Adapter) ChampErrMS() float64 { return a.champErr }
func (a *Adapter) ChalErrMS() float64  { return a.chalErr }

// Promotions, Demotions, Refits and Samples report lifetime counts.
func (a *Adapter) Promotions() int { return a.promotions }
func (a *Adapter) Demotions() int  { return a.demotions }
func (a *Adapter) Refits() int     { return a.refits }
func (a *Adapter) Samples() int    { return a.samples }
