package replay

import (
	"fmt"
	"slices"

	"litereconfig/internal/core"
	"litereconfig/internal/feat"
	"litereconfig/internal/glm"
	"litereconfig/internal/mbek"
	"litereconfig/internal/obs"
	"litereconfig/internal/par"
	"litereconfig/internal/sched"
)

// Engine re-executes the scheduler over a corpus of replay-enriched
// decision traces; build one per configuration. Replay spreads the
// corpus's (file, stream, gen) chains over GOMAXPROCS workers, each
// with its own decision scratch and model clone, and folds their
// results serially in corpus order, so a Result is bit-identical at any
// worker count. One Engine serves one Replay call at a time.
type Engine struct {
	cfg        Config
	models     *sched.Models
	branchIdx  map[string]int
	heavyKinds []feat.Kind

	// The Config.Policy override, when set.
	policy      core.Policy
	forced      feat.Kind
	hasOverride bool

	// riskF is the per-branch quantile inflation table of a positive
	// Config.RiskQuantile override: the models are read-only here, so
	// it is the same for every decision.
	riskF []float64

	// Per-worker scratch, reused across Replay calls.
	workers []*chainWorker
}

// chainWorker is one replay worker's decision scratch.
type chainWorker struct {
	// models is the engine's bundle when one worker runs, else a private
	// clone: the predictors write model-owned scratch.
	models *sched.Models
	in     core.DecisionInput
	scr    core.FeatureScratch
	// switchRows memoizes the offline C(b0, ·) rows, indexed by the
	// current branch b0 and filled on first use.
	switchRows [][]float64
	// failP holds the per-branch tracker-failure probabilities of the
	// Config.RiskQuantile override for the current decision.
	failP []float64
}

// switchRow returns the offline switch-cost row C(cur, ·).
func (w *chainWorker) switchRow(cur int) []float64 {
	bs := w.models.Branches
	if w.switchRows == nil {
		w.switchRows = make([][]float64, len(bs))
	}
	if w.switchRows[cur] == nil {
		w.switchRows[cur] = mbek.SwitchCostRow(make([]float64, len(bs)), bs[cur], bs)
	}
	return w.switchRows[cur]
}

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Models == nil {
		return nil, fmt.Errorf("replay: Models is required")
	}
	e := &Engine{
		cfg:        cfg,
		models:     cfg.Models,
		branchIdx:  make(map[string]int, len(cfg.Models.Branches)),
		heavyKinds: feat.HeavyKinds(),
	}
	for i, b := range cfg.Models.Branches {
		e.branchIdx[b.String()] = i
	}
	if cfg.Policy != "" {
		var err error
		if e.policy, e.forced, err = core.ParsePolicy(cfg.Policy); err != nil {
			return nil, fmt.Errorf("replay: policy override: %w", err)
		}
		e.hasOverride = true
	}
	if cfg.SLOMS < 0 || cfg.SafetyFactor < 0 {
		return nil, fmt.Errorf("replay: negative SLO or safety factor")
	}
	if cfg.RiskQuantile != nil && (*cfg.RiskQuantile < 0 || *cfg.RiskQuantile >= 1) {
		return nil, fmt.Errorf("replay: RiskQuantile override must be in [0, 1), got %v", *cfg.RiskQuantile)
	}
	if cfg.RiskQuantile != nil && *cfg.RiskQuantile > 0 {
		z := glm.NormalQuantile(*cfg.RiskQuantile)
		e.riskF = make([]float64, len(cfg.Models.Branches))
		for bi := range e.riskF {
			e.riskF[bi] = cfg.Models.QuantileFactor(bi, z)
		}
	}
	return e, nil
}

// Redecision is one replayed scheduling decision, paired with its
// recorded counterpart's identity and the counterfactual outcome
// estimate.
type Redecision struct {
	File     string
	Stream   int
	Gen      int
	Seq      int
	SLOMS    float64 // the SLO this decision was replayed under
	Branch   string
	Features []string
	Feasible int
	Fallback bool
	PredAcc  float64
	PredMS   float64
	// EstMS is the estimated realized per-frame GoF latency of the
	// replayed decision: the recorded realization when the replay chose
	// the recorded branch and feature set, otherwise the replayed
	// prediction scaled by the recorded realized/predicted residual.
	EstMS    float64
	Frames   int
	Attained bool
	// Diverged lists the fields on which the replayed decision differs
	// from the recording (empty for a faithful reproduction). Under the
	// identity configuration any entry is a fidelity violation.
	Diverged []string
	// MissingHeavy counts heavy features the replay selected whose
	// vectors the recording never extracted — their content models could
	// not contribute, so the accuracy estimate for this decision is
	// partially content-blind.
	MissingHeavy int
}

// Outcome aggregates estimated results over a replayed (or recorded)
// decision stream. All means are frame-weighted; decisions whose GoF
// never executed (zero recorded frames) carry no weight.
type Outcome struct {
	Decisions int
	GoFs      int
	Frames    int
	// AttainRate is the fraction of frames inside GoFs whose estimated
	// per-frame latency met the (replay) SLO.
	AttainRate float64
	// MeanAccuracy is the mean predicted accuracy of the decisions that
	// governed each frame.
	MeanAccuracy float64
	// MeanMS is the mean estimated per-frame latency.
	MeanMS float64
}

// Result is one replay pass over a corpus.
type Result struct {
	// Redecisions holds every replayed decision in corpus order.
	Redecisions []Redecision
	// Replayed and Recorded are the outcome estimates of the replayed
	// and the recorded decision streams, both judged against the replay
	// SLO — their deltas are the counterfactual value of the knob change.
	Replayed Outcome
	Recorded Outcome
	// DivergedDecisions counts replayed decisions that differ from the
	// recording on any compared field; MissingHeavy sums the
	// content-blind feature selections (see Redecision.MissingHeavy).
	DivergedDecisions int
	MissingHeavy      int
}

// Divergences returns the redecisions that differ from the recording.
func (r *Result) Divergences() []Redecision {
	var out []Redecision
	for i := range r.Redecisions {
		if len(r.Redecisions[i].Diverged) > 0 {
			out = append(out, r.Redecisions[i])
		}
	}
	return out
}

// Replay re-decides every decision in the corpus under the engine's
// configuration. Decisions lacking the replay payload, or whose payload
// does not match the engine's branch space, fail loudly — a corpus that
// cannot be replayed must never read as "replayed with zero
// divergence". Chains replay concurrently, each into its own slots of
// Redecisions; the tallies and means are folded afterwards in corpus
// order, and the error returned is the first failing chain's in corpus
// order.
func (e *Engine) Replay(c *Corpus) (*Result, error) {
	type chain struct{ file, lo, hi, at int }
	var chains []chain
	total := 0
	for fi := range c.Files {
		ds := c.Files[fi].Decisions
		for i := 0; i < len(ds); {
			j := i + 1
			for j < len(ds) && ds[j].Stream == ds[i].Stream && ds[j].Gen == ds[i].Gen {
				j++
			}
			chains = append(chains, chain{fi, i, j, total})
			total += j - i
			i = j
		}
	}
	res := &Result{}
	if total > 0 {
		res.Redecisions = make([]Redecision, total)
	}
	workers, err := e.startWorkers(par.Workers(len(chains)))
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(chains))
	par.For(len(workers), len(chains), func(w, ci int) {
		ch := chains[ci]
		f := &c.Files[ch.file]
		errs[ci] = e.replayChain(workers[w], f.Path, f.Decisions[ch.lo:ch.hi],
			res.Redecisions[ch.at:ch.at+ch.hi-ch.lo])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Outcome accounting, replayed and recorded, both against the replay
	// SLO, in corpus order. Decisions whose GoF never ran carry no
	// weight.
	var recAcc, recMS, repAcc, repMS weighted
	k := 0
	for fi := range c.Files {
		for di := range c.Files[fi].Decisions {
			d, rd := &c.Files[fi].Decisions[di], &res.Redecisions[k]
			k++
			if len(rd.Diverged) > 0 {
				res.DivergedDecisions++
			}
			res.MissingHeavy += rd.MissingHeavy
			res.Replayed.Decisions++
			res.Recorded.Decisions++
			if d.GoFFrames > 0 {
				w := float64(d.GoFFrames)
				res.Replayed.GoFs++
				res.Replayed.Frames += d.GoFFrames
				repAcc.add(rd.PredAcc, w)
				repMS.add(rd.EstMS, w)
				if rd.Attained {
					res.Replayed.AttainRate += w
				}
				res.Recorded.GoFs++
				res.Recorded.Frames += d.GoFFrames
				recAcc.add(d.PredAccuracy, w)
				recMS.add(d.RealizedMS, w)
				if d.RealizedMS <= rd.SLOMS {
					res.Recorded.AttainRate += w
				}
			}
		}
	}
	res.Replayed.MeanAccuracy = repAcc.mean()
	res.Replayed.MeanMS = repMS.mean()
	res.Replayed.finishRates()
	res.Recorded.MeanAccuracy = recAcc.mean()
	res.Recorded.MeanMS = recMS.mean()
	res.Recorded.finishRates()
	return res, nil
}

// startWorkers readies n workers' scratch: a single worker decides on
// the engine's bundle, concurrent ones each on a fresh clone of it.
func (e *Engine) startWorkers(n int) ([]*chainWorker, error) {
	for len(e.workers) < n {
		e.workers = append(e.workers, &chainWorker{})
	}
	for _, w := range e.workers[:n] {
		w.models = e.models
		if n > 1 {
			var err error
			if w.models, err = e.models.Clone(); err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
		}
	}
	return e.workers[:n], nil
}

// weighted accumulates a frame-weighted mean.
type weighted struct{ sum, w float64 }

func (a *weighted) add(v, w float64) { a.sum += v * w; a.w += w }
func (a *weighted) mean() float64 {
	if a.w == 0 {
		return 0
	}
	return a.sum / a.w
}

// attained is tracked in Outcome.AttainRate as a frame count until
// finishRates converts it to a rate.
func (o *Outcome) finishRates() {
	if o.Frames > 0 {
		o.AttainRate /= float64(o.Frames)
	}
}

// replayChain replays one (file, stream, gen) chain in seq order into
// out (one slot per decision), threading the counterfactual
// current-branch state and the simulated watchdog level through its
// decisions.
func (e *Engine) replayChain(w *chainWorker, path string, ds []obs.Decision, out []Redecision) error {
	curIdx := -1 // replayed current branch (chained), -1 before the first decision
	simLevel := 0
	// Until the replay's branch choice first diverges from the recording
	// the chain follows the recorded current-branch state verbatim —
	// including environmental discontinuities the scheduler never caused
	// (a kernel rebuilt fresh after recovery or migration). From the
	// first divergence on, the counterfactual branch chains forward.
	chainDiverged := false
	for di := range ds {
		rd, err := e.redecide(w, path, &ds[di], &curIdx, &simLevel, &chainDiverged)
		if err != nil {
			return err
		}
		out[di] = rd
	}
	return nil
}

// redecide runs core's decision procedure on the input recorded in one
// decision's payload, under the engine's knob overrides. With unchanged
// knobs the input is the one the live scheduler built, so the result is
// bit-identical to the recording.
func (e *Engine) redecide(w *chainWorker, path string, d *obs.Decision, curIdx, simLevel *int, chainDiverged *bool) (Redecision, error) {
	m := w.models
	at := func() string {
		return fmt.Sprintf("%s: stream %d gen %d seq %d", path, d.Stream, d.Gen, d.Seq)
	}
	rp := d.Replay
	if rp == nil {
		return Redecision{}, fmt.Errorf("replay: %s: decision has no replay payload (record the trace with the replay flag on)", at())
	}
	n := len(m.Branches)
	if rp.NumBranches != n {
		return Redecision{}, fmt.Errorf("replay: %s: trace recorded %d branches, models have %d — wrong model bundle", at(), rp.NumBranches, n)
	}
	if len(rp.AccLight) != n || len(rp.KernelMS) != n {
		return Redecision{}, fmt.Errorf("replay: %s: payload tables truncated (acc_light %d, kernel_ms %d, want %d)", at(), len(rp.AccLight), len(rp.KernelMS), n)
	}
	if rp.SwitchMS != nil && len(rp.SwitchMS) != n {
		return Redecision{}, fmt.Errorf("replay: %s: switch_ms table truncated (%d, want %d)", at(), len(rp.SwitchMS), n)
	}
	if want := len(m.LightNorm.Mean); len(rp.Light) != want {
		return Redecision{}, fmt.Errorf("replay: %s: payload light vector has %d dims, models want %d", at(), len(rp.Light), want)
	}
	in := &w.in
	*in = core.DecisionInput{Branches: m.Branches, Ben: m.Ben, Cur: -1}
	for _, k := range e.heavyKinds {
		c, ok := rp.FeatCostMS[k.String()]
		if !ok {
			return Redecision{}, fmt.Errorf("replay: %s: payload has no cost for feature %v", at(), k)
		}
		in.FeatCostMS[k] = c
		if vec, ok := rp.Heavy[k.String()]; ok && len(vec) != len(m.HeavyNorm[k].Mean) {
			return Redecision{}, fmt.Errorf("replay: %s: payload %v vector has %d dims, models want %d", at(), k, len(vec), len(m.HeavyNorm[k].Mean))
		}
	}

	// Effective knobs: configured overrides, else as recorded.
	in.SLOMS = rp.SLOMS
	if e.cfg.SLOMS > 0 {
		in.SLOMS = e.cfg.SLOMS
	}
	in.SafetyFactor = rp.SafetyFactor
	if e.cfg.SafetyFactor > 0 {
		in.SafetyFactor = e.cfg.SafetyFactor
	}
	in.BudgetMS = in.SLOMS * in.SafetyFactor
	in.S0MS = rp.S0MS
	in.Hysteresis = orRecorded(e.cfg.Hysteresis, rp.Hysteresis)
	in.CostWeight = orRecorded(e.cfg.CostWeight, rp.CostWeight)
	in.NoSwitch = orRecorded(e.cfg.DisableSwitchCost, rp.DisableSwitchCost)

	// Variant: the override, else the recorded policy name.
	if e.hasOverride {
		in.Policy, in.Forced = e.policy, e.forced
		in.ManageOverhead = e.policy.ManagesOverhead()
	} else {
		var err error
		if in.Policy, in.Forced, err = core.ParsePolicy(d.Policy); err != nil {
			return Redecision{}, fmt.Errorf("replay: %w (%s)", err, at())
		}
		in.ManageOverhead = rp.ManageOverhead
	}

	// Current-branch state: a recorded fresh kernel (no branch yet —
	// stream start, or rebuilt after recovery or migration) resets the
	// chain; otherwise the recorded branch while the chain still tracks
	// the recording, the chained counterfactual branch after the first
	// divergence.
	in.HasCur = rp.HasCur
	recordedCur := -1
	if rp.HasCur {
		bi, ok := e.branchIdx[rp.CurBranch]
		if !ok {
			return Redecision{}, fmt.Errorf("replay: %s: recorded current branch %q not in model bundle", at(), rp.CurBranch)
		}
		recordedCur = bi
	} else {
		*curIdx = -1
	}
	in.Cur = *curIdx
	if !*chainDiverged || in.Cur < 0 {
		in.Cur = recordedCur
	}
	// C(cur, ·): the recorded row (which includes adapter-observed
	// estimates) whenever the counterfactual sits on the recorded branch,
	// the offline model otherwise.
	if in.HasCur {
		if in.Cur == recordedCur && rp.SwitchMS != nil {
			in.SwitchMS = rp.SwitchMS
		} else {
			in.SwitchMS = w.switchRow(in.Cur)
		}
	}

	// Degradation state for this decision.
	switch e.cfg.Degrade {
	case DegradeRecorded:
		in.DegradeLevel = d.Degrade
		in.BreakerOpen = d.Breaker == "open"
	case DegradeSim:
		in.DegradeLevel = *simLevel
		in.BreakerOpen = d.Breaker == "open"
	}

	// Prediction tables: recorded, or recomputed from the bundle and
	// the recorded feature vectors + scale factors (UseModelPredictions).
	in.AccLight, in.KernelMS = rp.AccLight, rp.KernelMS
	if e.cfg.UseModelPredictions {
		in.AccLight = m.PredictAccuracyLight(rp.Light)
		cpuAdj := m.CPUAdjFactor()
		in.KernelMS = make([]float64, n)
		for bi := range in.KernelMS {
			det, trk := m.PredictLatency(bi, rp.Light)
			in.KernelMS[bi] = det*rp.GPUScale + trk*rp.CPUScale*cpuAdj + m.LatencyBiasMS(bi)
		}
	}

	// Step 2: decide the heavy feature set.
	selected, _ := in.SelectFeatures(&w.scr)

	// Step 3: map the selected set onto the recorded extraction
	// environment. Recorded extraction failures fail again (they are
	// the environment, not the policy); selections the recording never
	// extracted have no vectors and degrade the estimate loudly.
	recorded := d.Features
	sameSet := equalKindNames(selected, recorded)
	missingHeavy := 0
	var extracted []feat.Kind
	var heavy map[feat.Kind][]float64
	for _, k := range selected {
		if slices.Contains(d.FailedFeatures, k.String()) {
			continue
		}
		vec, ok := rp.Heavy[k.String()]
		if !ok {
			missingHeavy++
			continue
		}
		if heavy == nil {
			heavy = make(map[feat.Kind][]float64, len(selected))
		}
		heavy[k] = vec
		extracted = append(extracted, k)
	}
	switch {
	case sameSet && !e.cfg.UseModelPredictions:
		// Identity path: the recorded content-aware table when heavy
		// features survived, else the content-agnostic one (what
		// PredictAccuracySet returns for an empty set).
		in.Acc = in.AccLight
		if len(rp.Acc) == n {
			in.Acc = rp.Acc
		}
	case len(extracted) == 0:
		in.Acc = in.AccLight
	default:
		in.Acc = m.PredictAccuracySet(extracted, rp.Light, heavy)
	}

	// Scheduler spend: the recorded realization when the feature set is
	// unchanged; otherwise adjusted by the estimated price delta of the
	// selection change.
	in.SchedSpentMS = rp.SchedSpentMS
	if !sameSet {
		for _, name := range recorded {
			if c, ok := rp.FeatCostMS[name]; ok {
				in.SchedSpentMS -= c
			}
		}
		for _, k := range selected {
			in.SchedSpentMS += in.FeatCostMS[k]
		}
		in.SchedSpentMS = max(in.SchedSpentMS, 0)
	}

	// Risk admission: a risk-recorded payload (PolicyRev ≥ 1) carries the
	// exact per-branch quantile inflation factors and tracker-failure
	// probabilities the live admission used, so replay reproduces the
	// risk procedure bit-exactly without variance state. The
	// Config.RiskQuantile override instead re-derives both from the
	// engine's models (counterfactual risk level), or forces mean
	// admission at zero.
	if e.cfg.RiskQuantile == nil {
		if rp.PolicyRev >= 1 && rp.RiskQ > 0 {
			if len(rp.RiskFactor) != n || len(rp.FailProb) != n {
				return Redecision{}, fmt.Errorf("replay: %s: risk payload tables truncated (risk_factor %d, fail_prob %d, want %d)", at(), len(rp.RiskFactor), len(rp.FailProb), n)
			}
			in.RiskF, in.FailP = rp.RiskFactor, rp.FailProb
		}
	} else if e.riskF != nil {
		w.failP = slices.Grow(w.failP[:0], n)[:n]
		for bi := range w.failP {
			w.failP[bi] = m.PredictFailProb(bi, rp.Light)
		}
		in.RiskF, in.FailP = e.riskF, w.failP
	}

	// Step 4: constrained optimization (Eq. 3).
	ch := in.ChooseBranch()
	predAcc := in.Acc[ch.Branch]
	branchName := m.Branches[ch.Branch].String()

	// Fidelity comparison against the recording.
	var diverged []string
	if branchName != d.Branch {
		diverged = append(diverged, "branch")
	}
	if !sameSet {
		diverged = append(diverged, "features")
	}
	if ch.Feasible != d.FeasibleBranches {
		diverged = append(diverged, "feasible")
	}
	if ch.Fallback != d.Fallback {
		diverged = append(diverged, "fallback")
	}
	if predAcc != d.PredAccuracy {
		diverged = append(diverged, "pred_acc")
	}
	if ch.PredMS != d.PredLatencyMS {
		diverged = append(diverged, "pred_lat")
	}

	// Counterfactual outcome estimate: ground truth when the replay
	// took the recorded action, else the replayed prediction anchored by
	// the recorded realized-vs-predicted residual.
	estMS := d.RealizedMS
	if branchName != d.Branch || !sameSet {
		ratio := 1.0
		if d.RealizedMS > 0 && d.PredLatencyMS > 0 {
			ratio = min(max(d.RealizedMS/d.PredLatencyMS, 0.25), 4)
		}
		estMS = ch.PredMS * ratio
	}

	rd := Redecision{
		File: path, Stream: d.Stream, Gen: d.Gen, Seq: d.Seq,
		SLOMS:        in.SLOMS,
		Branch:       branchName,
		Feasible:     ch.Feasible,
		Fallback:     ch.Fallback,
		PredAcc:      predAcc,
		PredMS:       ch.PredMS,
		EstMS:        estMS,
		Frames:       d.GoFFrames,
		Attained:     estMS <= in.SLOMS,
		Diverged:     diverged,
		MissingHeavy: missingHeavy,
	}
	for _, k := range selected {
		rd.Features = append(rd.Features, k.String())
	}

	// Chain state forward: the kernel leaves this GoF on the chosen
	// branch, and the simulated watchdog reacts to the estimated
	// realization the way ObserveGoF reacts to the real one.
	*curIdx = ch.Branch
	if branchName != d.Branch {
		*chainDiverged = true
	}
	if e.cfg.Degrade == DegradeSim && d.GoFFrames > 0 {
		*simLevel = core.LadderStep(*simLevel, estMS > in.SLOMS)
	}
	return rd, nil
}

// orRecorded returns the override when it is set, else the recorded
// value.
func orRecorded[T any](override *T, recorded T) T {
	if override != nil {
		return *override
	}
	return recorded
}

// equalKindNames reports whether the selected kinds equal the recorded
// name list, in order (the greedy emits a deterministic order, so order
// is part of the invariant).
func equalKindNames(kinds []feat.Kind, names []string) bool {
	if len(kinds) != len(names) {
		return false
	}
	for i, k := range kinds {
		if k.String() != names[i] {
			return false
		}
	}
	return true
}
