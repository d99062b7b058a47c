package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"litereconfig/internal/detect"
	"litereconfig/internal/feat"
	"litereconfig/internal/glm"
	"litereconfig/internal/linreg"
	"litereconfig/internal/mbek"
	"litereconfig/internal/nn"
	"litereconfig/internal/par"
	"litereconfig/internal/vec"
)

// Models bundles everything the online scheduler loads: the branch space,
// the content-agnostic and content-aware accuracy predictors, the
// per-branch latency regressions, the feature standardizers, and the
// benefit table.
type Models struct {
	Branches []mbek.Branch
	Det      detect.Model

	// LightNet is the content-agnostic accuracy model A(b, f_L).
	LightNet *nn.Net
	// ContentNets holds one two-tower accuracy model per heavy feature
	// kind. Each is trained on the *residual* of the light model:
	// A(b, [f_L, f_H^k]) = A(b, f_L) + tower_k(f_L, f_H^k). The residual
	// parameterization plus strong L2 keeps the high-dimensional content
	// features from overfitting small offline datasets — with no signal,
	// the content-aware prediction degrades gracefully to the
	// content-agnostic one.
	ContentNets map[feat.Kind]*nn.TwoTower

	// LatDet and LatTrk are per-branch linear regressions predicting the
	// per-frame detector (GPU) and tracker (CPU) base costs from the
	// light features.
	LatDet []*linreg.Model
	LatTrk []*linreg.Model

	// LatVar holds one residual-variance accumulator per branch, over
	// *log-ratio* residuals ln(realized / predicted) of the total kernel
	// latency. Contention effects on mobile-GPU latency are
	// multiplicative, so the interval is lognormal: the q-quantile
	// latency is prediction x exp(z(q) x sigma(b)), and the margin
	// scales with whatever device/contention factor the point estimate
	// was scaled by. Seeded offline from the training residuals; the
	// online refit folds realized GoF outcomes in (one extra accumulator
	// per branch). Nil or all-zero — every bundle saved before risk
	// admission existed — reads as "no variance info" and every quantile
	// degrades to the point estimate.
	LatVar []glm.VarAcc

	// FailNets holds one logistic (logit-link binomial GLM) model per
	// branch predicting the tracker-failure probability from the light
	// features: the probability that the branch's snippet mAP collapses
	// below half the best achievable mAP (the tracker lost its objects
	// before the next detector refresh). Stored by value so gob encodes
	// the slice; a zero-value entry (no coefficients) — including every
	// pre-risk bundle — predicts zero failure probability.
	FailNets []glm.Model

	// LightNorm standardizes the light features; HeavyNorm standardizes
	// each heavy feature.
	LightNorm *Standardizer
	HeavyNorm map[feat.Kind]*Standardizer

	// Sketch holds the frozen random projection (rows x SketchDim) per
	// heavy feature, applied after standardization and before the tower.
	Sketch map[feat.Kind][][]float64

	// Ben is the offline benefit table of Sec. 3.4.
	Ben *BenTable

	// LatBiasMS, AccScale and AccBias hold the online-adaptation
	// calibration state (package adapt); all zero on freshly trained or
	// pre-adaptation models. LatBiasMS is a per-branch additive
	// correction in realized (post device/contention scaling)
	// milliseconds applied on top of the L0 regressions; AccScale and
	// AccBias recalibrate the accuracy predictor's outputs with a
	// uniform affine transform a' = AccScale·a + AccBias — uniform so
	// the branch argmax ordering is preserved, only the magnitude the
	// optimizer trades against latency changes. AccScale == 0 is read
	// as identity so models saved before adaptation load unchanged.
	// LatCPUAdj is a global multiplier on the tracker (CPU) side of the
	// latency estimate, applied on top of whatever device/drift scaling
	// the scheduler's sensors provide: the adapter solves it per GoF
	// from exact base-cost shares, so a board-wide CPU slowdown is
	// learned once and generalizes to branches never yet executed.
	// Like AccScale, 0 is read as identity.
	LatBiasMS []float64
	AccScale  float64
	AccBias   float64
	LatCPUAdj float64

	// FeatureSeed identifies the feature-extractor instance (the
	// simulated embedding networks' weights) the training features came
	// from. The online scheduler MUST extract with the same seed, or the
	// content towers see inputs from a different distribution.
	FeatureSeed int64

	// Reusable scratch for the predictors. Everything above except the
	// latency-model state is read-only once Train or Load returns: the
	// networks are frozen (nn.Dense.Freeze) and run through the
	// inference path (nn.Net.Infer, nn.TwoTower.Infer), which never
	// writes to them, so every Clone shares them, frozen copies
	// included. The scratch is the only per-call working state; gob
	// drops it (unexported) and Clone resets it, so each clone grows its
	// own and per-stream clones are safe to use concurrently. A single
	// Models value is NOT safe for concurrent predictor calls.
	scrNorm    []float64  // LightNorm output
	scrHeavy   []float64  // HeavyNorm output
	scrSketch  []float64  // random-projection output
	scrNZ      []int32    // nonzero rows of the projection input
	scrContent []float64  // per-kind content prediction inside Set ensembling
	scrNN      nn.Scratch // network forward buffers
}

// Train fits all models on a collected dataset.
func Train(cfg Config, ds *Dataset) (*Models, error) {
	cfg.applyDefaults()
	if len(ds.Samples) == 0 {
		return nil, fmt.Errorf("sched: empty dataset")
	}
	m := &Models{
		Branches:    cfg.Branches,
		Det:         cfg.Det,
		ContentNets: map[feat.Kind]*nn.TwoTower{},
		HeavyNorm:   map[feat.Kind]*Standardizer{},
		Sketch:      map[feat.Kind][][]float64{},
		FeatureSeed: cfg.Seed,
	}
	sketchRng := rand.New(rand.NewSource(cfg.Seed + 9999))
	for _, k := range feat.HeavyKinds() {
		dim := feat.SpecOf(k).Dim
		sk := cfg.SketchDim
		if sk > dim {
			sk = dim
		}
		proj := make([][]float64, dim)
		scale := 1 / math.Sqrt(float64(dim))
		for i := range proj {
			proj[i] = make([]float64, sk)
			for j := range proj[i] {
				proj[i][j] = sketchRng.NormFloat64() * scale
			}
		}
		m.Sketch[k] = proj
	}

	// Split the offline samples: most train the predictors, a held-out
	// fraction measures the benefit table so Ben(f_H) reflects the gain
	// the content features generalize to, not training-set optimism.
	period := 0
	if cfg.BenHoldoutFrac > 0 && cfg.BenHoldoutFrac < 1 {
		period = int(math.Round(1 / cfg.BenHoldoutFrac))
	}
	var train, hold []Sample
	for i, s := range ds.Samples {
		if period > 1 && i%period == period-1 {
			hold = append(hold, s)
		} else {
			train = append(train, s)
		}
	}
	if len(train) == 0 {
		train = ds.Samples
	}
	if len(hold) == 0 {
		hold = train
	}

	// Standardizers (fit on the training split).
	lights := make([][]float64, len(train))
	for i, s := range train {
		lights[i] = s.Light
	}
	m.LightNorm = FitStandardizer(lights)
	for _, k := range feat.HeavyKinds() {
		rows := make([][]float64, len(train))
		for i, s := range train {
			rows[i] = s.Heavy[k]
		}
		m.HeavyNorm[k] = FitStandardizer(rows)
	}

	// Normalized inputs and accuracy targets.
	normLights := make([][]float64, len(train))
	targets := make([][]float64, len(train))
	for i, s := range train {
		normLights[i] = m.LightNorm.Apply(s.Light)
		targets[i] = s.MAP
	}

	batch := 64
	if batch > len(train) {
		batch = len(train)
	}
	trainer := nn.Trainer{
		LR: 0.01, Momentum: 0.9, L2: 1e-4,
		Epochs: cfg.Epochs, Batch: batch, Seed: cfg.Seed,
		Tol: 1e-6, Patience: 25,
	}

	// Content-agnostic accuracy model.
	sizes := append([]int{feat.SpecOf(feat.Light).Dim}, cfg.Hidden...)
	sizes = append(sizes, len(cfg.Branches))
	m.LightNet = nn.NewNet(cfg.Seed+100, sizes...)
	trainer.FitNet(m.LightNet, normLights, targets)
	m.LightNet.Freeze()

	// Content-aware accuracy models, one per heavy feature, trained on
	// the light model's residual with stronger weight decay.
	residuals := make([][]float64, len(train))
	for i := range train {
		pred := m.LightNet.Forward(normLights[i])
		res := make([]float64, len(pred))
		for j := range pred {
			res[j] = targets[i][j] - pred[j]
		}
		residuals[i] = res
	}
	// The towers are sketched and built serially, then fitted
	// concurrently: each fit reads only the shared inputs and writes only
	// its own tower, with its own trainer copy and seed. Gating stays
	// serial because it runs the predictors through m's scratch.
	kinds := feat.HeavyKinds()
	heavies := make([][][]float64, len(kinds))
	nets := make([]*nn.TwoTower, len(kinds))
	for ki, k := range kinds {
		heavy := make([][]float64, len(train))
		for i, s := range train {
			heavy[i] = append([]float64(nil), m.sketchApplyInto(k, s.Heavy[k])...)
		}
		heavies[ki] = heavy
		nets[ki] = nn.NewTwoTower(nn.TwoTowerConfig{
			InA: feat.SpecOf(feat.Light).Dim, InB: len(heavy[0]),
			ProjDim: cfg.ProjDim, Hidden: cfg.Hidden,
			Out: len(cfg.Branches), Seed: cfg.Seed + 200 + int64(k),
		})
	}
	par.For(par.Workers(len(kinds)), len(kinds), func(_, ki int) {
		tt := trainer
		tt.Seed += int64(kinds[ki])
		tt.L2 = 1e-3
		tt.FitTwoTower(nets[ki], normLights, heavies[ki], residuals)
	})
	for ki, k := range kinds {
		nets[ki].Freeze()
		m.ContentNets[k] = nets[ki]
		// Holdout-gated residual scaling: keep the residual only when it
		// improves branch selection on unseen snippets by a clear margin;
		// a tower that learned noise degrades to the light model rather
		// than misleading the scheduler.
		gateContentTower(m, k, hold, cfg.BudgetsMS)
	}

	// Per-branch latency regressions on raw light features.
	m.LatDet = make([]*linreg.Model, len(cfg.Branches))
	m.LatTrk = make([]*linreg.Model, len(cfg.Branches))
	ysDet := make([]float64, len(train))
	ysTrk := make([]float64, len(train))
	for bi := range cfg.Branches {
		for i, s := range train {
			ysDet[i] = s.DetMS[bi]
			ysTrk[i] = s.TrkMS[bi]
		}
		var err error
		if m.LatDet[bi], err = linreg.Fit(lights, ysDet, 1e-6); err != nil {
			return nil, fmt.Errorf("sched: latency fit (det, branch %d): %w", bi, err)
		}
		if m.LatTrk[bi], err = linreg.Fit(lights, ysTrk, 1e-6); err != nil {
			return nil, fmt.Errorf("sched: latency fit (trk, branch %d): %w", bi, err)
		}
	}
	trainRisk(cfg, train, m)

	m.Ben = buildBenTable(cfg, hold, m)
	return m, nil
}

// driftPrior is the contention-drift component of the prediction
// interval: log latency-multiplier ratios log(M(g+delta)/M(g)) for a
// grid of decide-time loads g in {0, 0.25, 0.5} and within-GoF drifts
// delta in {0, 0.1, 0.25} under the simulator's contention model
// M(g) = 1 + 1.2g. A scheduler prices a GoF at the contention it sees
// when it decides, but on a live board admissions and preemptions move
// the load before the GoF finishes; crossing every window residual with
// this grid folds that stationary drift assumption into the per-branch
// residual mean and variance, which is what lets the empirical p95
// coverage hold on open-world workloads and not only in closed replays.
var driftPrior = func() []float64 {
	mult := func(g float64) float64 { return 1 + 1.2*g }
	var out []float64
	for _, g := range []float64{0, 0.25, 0.5} {
		for _, d := range []float64{0, 0.1, 0.25} {
			out = append(out, math.Log(mult(g+d)/mult(g)))
		}
	}
	return out
}()

// trainRisk fits the risk-side models: per-branch log-ratio residual
// variance of the latency fits (seeding the prediction intervals) and
// the per-branch logistic tracker-failure model.
func trainRisk(cfg Config, train []Sample, m *Models) {
	m.LatVar = make([]glm.VarAcc, len(cfg.Branches))
	m.FailNets = make([]glm.Model, len(cfg.Branches))
	lights := make([][]float64, len(train))
	fails := make([]float64, len(train))
	for i, s := range train {
		lights[i] = s.Light
	}
	for bi := range cfg.Branches {
		positives := 0
		for i, s := range train {
			pd, pt := m.PredictLatency(bi, s.Light)
			pred := pd + pt
			// GoF-window residuals: each window mean carries the
			// execution noise a serve-time GoF realizes, which the
			// snippet aggregate averages away. Each window residual is
			// crossed with the contention-drift prior so the interval
			// also budgets for the board's load moving between decide
			// and execute. When a dataset predates the window series
			// (no WinMS), fall back to the aggregate so old datasets
			// still train.
			if wins := winsOf(s, bi); len(wins) > 0 {
				for _, w := range wins {
					if w > 1e-6 && pred > 1e-6 {
						r := math.Log(w / pred)
						for _, dt := range driftPrior {
							m.LatVar[bi].Add(r + dt)
						}
					}
				}
			} else if total := s.DetMS[bi] + s.TrkMS[bi]; total > 1e-6 && pred > 1e-6 {
				m.LatVar[bi].Add(math.Log(total / pred))
			}
			// Tracker failure: the branch's snippet mAP collapsed below
			// half the best achievable mAP on the same snippet.
			best := s.MAP[0]
			for _, v := range s.MAP[1:] {
				if v > best {
					best = v
				}
			}
			fails[i] = 0
			if best > 0 && s.MAP[bi] < 0.5*best {
				fails[i] = 1
				positives++
			}
		}
		// A branch that never (or always) fails on the training set has
		// no separable signal; nil keeps the constant verdict implicit.
		if positives == 0 || positives == len(train) {
			continue
		}
		fm, err := (glm.Fitter{Family: glm.Binomial}).Fit(&glm.Dataset{
			X: lights, Y: append([]float64(nil), fails...),
		})
		if err == nil {
			m.FailNets[bi] = *fm
		}
	}
}

// winsOf returns sample s's GoF-window latency means for branch bi, or
// nil when the dataset predates window collection.
func winsOf(s Sample, bi int) []float64 {
	if bi >= len(s.WinMS) {
		return nil
	}
	return s.WinMS[bi]
}

// PredictAccuracyLight returns the content-agnostic per-branch accuracy
// prediction A(b, f_L). The result is a fresh slice.
func (m *Models) PredictAccuracyLight(light []float64) []float64 {
	return m.PredictAccuracyLightInto(nil, light)
}

// PredictAccuracyLightInto is the allocation-free variant of
// PredictAccuracyLight: the prediction is written into dst (grown only
// when its capacity is short) and the normalization runs through
// model-owned scratch. The returned slice aliases dst's backing store
// and stays valid until the caller's next use of that buffer.
func (m *Models) PredictAccuracyLightInto(dst, light []float64) []float64 {
	m.scrNorm = m.LightNorm.ApplyInto(m.scrNorm, light)
	return m.PredictAccuracyNormInto(dst, m.scrNorm)
}

// PredictAccuracyNormInto is PredictAccuracyLightInto given the
// already standardized light vector (LightNorm's output).
func (m *Models) PredictAccuracyNormInto(dst, lightNorm []float64) []float64 {
	out := m.LightNet.Infer(&m.scrNN, lightNorm)
	dst = append(dst[:0], out...)
	if m.AccScale != 0 && (m.AccScale != 1 || m.AccBias != 0) {
		for i := range dst {
			dst[i] = m.AccScale*dst[i] + m.AccBias
		}
	} else if m.AccBias != 0 {
		for i := range dst {
			dst[i] += m.AccBias
		}
	}
	return dst
}

// CPUAdjFactor returns the online-learned global CPU-side latency
// multiplier (1 on freshly trained or pre-adaptation models).
func (m *Models) CPUAdjFactor() float64 {
	if m.LatCPUAdj == 0 {
		return 1
	}
	return m.LatCPUAdj
}

// LatencyBiasMS returns branch bi's online-learned additive latency
// correction in realized milliseconds (zero before any adaptation).
func (m *Models) LatencyBiasMS(bi int) float64 {
	if bi < 0 || bi >= len(m.LatBiasMS) {
		return 0
	}
	return m.LatBiasMS[bi]
}

// PredictAccuracyContent returns the content-aware per-branch accuracy
// prediction A(b, [f_L, f_H^k]) for one heavy feature: the light model's
// prediction plus the feature's residual tower.
func (m *Models) PredictAccuracyContent(k feat.Kind, light, heavy []float64) []float64 {
	norm := m.LightNorm.Apply(light)
	acc := m.PredictAccuracyNormInto(nil, norm)
	return m.predictAccuracyContentInto(nil, k, acc, norm, heavy)
}

// predictAccuracyContentInto writes the content-aware prediction into
// dst: accLight, the light model's prediction for the standardized light
// vector lightNorm, plus the residual tower for feature k.
func (m *Models) predictAccuracyContentInto(dst []float64, k feat.Kind, accLight, lightNorm, heavy []float64) []float64 {
	net, ok := m.ContentNets[k]
	if !ok {
		panic(fmt.Sprintf("sched: no content model for %v", k))
	}
	dst = append(dst[:0], accLight...)
	res := net.Infer(&m.scrNN, lightNorm, m.sketchApplyInto(k, heavy))
	for i := range dst {
		dst[i] += res[i]
	}
	return dst
}

// PredictAccuracySet returns A(b, f) for a set of selected heavy features:
// the per-feature model outputs are ensembled by averaging. An empty set
// yields the content-agnostic prediction.
func (m *Models) PredictAccuracySet(kinds []feat.Kind, light []float64, heavy map[feat.Kind][]float64) []float64 {
	norm := m.LightNorm.Apply(light)
	acc := m.PredictAccuracyNormInto(nil, norm)
	return m.PredictAccuracySetInto(nil, kinds, acc, norm, heavy)
}

// PredictAccuracySetInto is the allocation-free variant of
// PredictAccuracySet for a decision that already holds its light-model
// prediction accLight and the standardized light vector lightNorm it
// came from (LightNorm.ApplyInto, then PredictAccuracyNormInto): every
// per-feature prediction starts from accLight instead of re-running the
// light model. The ensemble accumulates into dst (grown only when its
// capacity is short) and each per-feature prediction lands in
// model-owned scratch. The returned slice aliases dst's backing store.
func (m *Models) PredictAccuracySetInto(dst []float64, kinds []feat.Kind, accLight, lightNorm []float64, heavy map[feat.Kind][]float64) []float64 {
	if len(kinds) == 0 {
		return append(dst[:0], accLight...)
	}
	if cap(dst) < len(m.Branches) {
		dst = make([]float64, len(m.Branches))
	} else {
		dst = dst[:len(m.Branches)]
		for i := range dst {
			dst[i] = 0
		}
	}
	for _, k := range kinds {
		m.scrContent = m.predictAccuracyContentInto(m.scrContent, k, accLight, lightNorm, heavy[k])
		for i := range dst {
			dst[i] += m.scrContent[i]
		}
	}
	inv := 1.0 / float64(len(kinds))
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}

// PredictLatency returns the per-frame base costs (detector GPU ms,
// tracker CPU ms, both in TX2 units at zero contention) for branch bi.
func (m *Models) PredictLatency(bi int, light []float64) (detMS, trkMS float64) {
	return latencyMS(m.LatDet[bi], light), latencyMS(m.LatTrk[bi], light)
}

// latencyMS is math.Max(r.Predict(light), 0), bit for bit, for the
// 4-value light vector (feat.Light's Dim): Predict's additions in
// Predict's order, written out, which halves the cost of Predict's
// loop. v <= 0 picks +0 exactly where Max returns it (for −0 as well),
// v stays where Max returns it (+Inf included), and a NaN becomes
// math.NaN(), the NaN Max returns. Any other length panics, as Predict
// panics on a fit that does not match the vector.
func latencyMS(r *linreg.Model, light []float64) float64 {
	c := r.Coef
	if len(c) != 4 || len(light) != 4 {
		panic("sched: latency fit and light vector must hold 4 values")
	}
	v := r.Intercept
	v += c[0] * light[0]
	v += c[1] * light[1]
	v += c[2] * light[2]
	v += c[3] * light[3]
	if v <= 0 {
		v = 0
	} else if v != v {
		v = math.NaN()
	}
	return v
}

// LatLogStd returns branch bi's log-ratio residual standard deviation
// (0 when the bundle carries no variance information — pre-risk
// bundles, or a branch with too few residuals).
func (m *Models) LatLogStd(bi int) float64 {
	if bi < 0 || bi >= len(m.LatVar) {
		return 0
	}
	return m.LatVar[bi].Std()
}

// QuantileFactor returns the multiplicative factor exp(mu(bi) + z x
// sigma(bi)) that lifts branch bi's point latency estimate to its
// z-score quantile under the lognormal residual model. The residual
// mean enters because the accumulated residuals are not centered: the
// drift prior and serve-side feedback both shift realized latency
// systematically above the fit, and a quantile that ignores the shift
// under-covers by exactly that bias. It is 1 when no variance is
// known, so risk-blind bundles degrade to mean admission. Allocation
// free: the per-GoF decision path multiplies every branch's planned
// kernel latency by this.
func (m *Models) QuantileFactor(bi int, z float64) float64 {
	s := m.LatLogStd(bi)
	if s <= 0 || z == 0 {
		return 1
	}
	// Clamp to [1, 4]: the interval never undercuts the point estimate,
	// and a cold, noisy accumulator cannot veto every branch — 4x covers
	// any plausible contention tail.
	f := math.Exp(m.LatVar[bi].Mean + z*s)
	if f < 1 {
		f = 1
	}
	if f > 4 {
		f = 4
	}
	return f
}

// PredictQuantile returns the q-quantile of branch bi's per-frame base
// kernel latency (TX2 units, zero contention): the point prediction
// lifted by the lognormal interval. q <= 0.5 with no variance info
// degrades to the point estimate — PredictQuantile(bi, f, 0.5) equals
// PredictLatency's total.
func (m *Models) PredictQuantile(bi int, light []float64, q float64) float64 {
	det, trk := m.PredictLatency(bi, light)
	return (det + trk) * m.QuantileFactor(bi, glm.NormalQuantile(q))
}

// PredictFailProb returns branch bi's predicted tracker-failure
// probability under the light features, or 0 when the bundle has no
// failure model for the branch.
func (m *Models) PredictFailProb(bi int, light []float64) float64 {
	if bi < 0 || bi >= len(m.FailNets) || m.FailNets[bi].N == 0 {
		return 0
	}
	return m.FailNets[bi].Predict(light)
}

// gateContentTower picks the residual scale in {1, 0.5, 0.25, 0} that
// maximizes the mean true accuracy of the branches the content predictor
// selects on the holdout samples, and bakes it into the tower's output
// layer, refreezing the layer after each change so the predictions read
// the scaled weights.
func gateContentTower(m *Models, k feat.Kind, hold []Sample, budgets []float64) {
	net := m.ContentNets[k]
	out := net.Trunk.Layers[len(net.Trunk.Layers)-1]
	origW := append([]float64(nil), out.W...)
	origB := append([]float64(nil), out.B...)
	apply := func(scale float64) {
		for i := range out.W {
			out.W[i] = origW[i] * scale
		}
		for i := range out.B {
			out.B[i] = origB[i] * scale
		}
		out.Freeze()
	}
	// Quality of the fully gated tower (scale 0 == the light model).
	apply(0)
	q0 := contentPickQuality(m, k, hold, budgets)
	// A nonzero residual must beat the light model by a clear margin on
	// the holdout; otherwise selection noise (winner's curse on a small
	// split) would keep residuals that hurt on genuinely unseen videos.
	const gateMargin = 0.004
	bestScale, bestQ := 0.0, q0+gateMargin
	for _, scale := range []float64{1, 0.5, 0.25} {
		apply(scale)
		if q := contentPickQuality(m, k, hold, budgets); q > bestQ+1e-12 {
			bestQ = q
			bestScale = scale
		}
	}
	apply(bestScale)
}

// contentPickQuality is the mean true accuracy of the branches the
// content predictor for k selects over the given samples, averaged over
// the latency-budget buckets. Measuring the *constrained* argmax matters:
// unconstrained, one heavy branch dominates all content, and the value of
// content features only appears once the feasible set is budget-limited
// (exactly the scheduler's operating regime).
func contentPickQuality(m *Models, k feat.Kind, samples []Sample, budgets []float64) float64 {
	var sum float64
	n := 0
	for _, s := range samples {
		pred := m.PredictAccuracyContent(k, s.Light, s.Heavy[k])
		for _, budget := range budgets {
			feasible := feasibleSet(s, budget)
			if len(feasible) == 0 {
				continue
			}
			sum += s.MAP[argmaxOver(pred, feasible)]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// sketchApplyInto standardizes a heavy feature and applies its frozen
// random projection, both through model-owned scratch buffers.
func (m *Models) sketchApplyInto(k feat.Kind, heavy []float64) []float64 {
	m.scrHeavy = m.HeavyNorm[k].ApplyInto(m.scrHeavy, heavy)
	z := m.scrHeavy
	proj := m.Sketch[k]
	if len(proj) == 0 {
		return z
	}
	if cap(m.scrSketch) < len(proj[0]) {
		m.scrSketch = make([]float64, len(proj[0]))
	}
	m.scrSketch = m.scrSketch[:len(proj[0])]
	clear(m.scrSketch)
	m.scrNZ = vec.Accumulate(m.scrSketch, z, proj, m.scrNZ)
	return m.scrSketch
}

// BenTable is the offline-computed benefit lookup of Sec. 3.4: the
// expected accuracy gain of scheduling with one heavy feature versus the
// light-only scheduler, bucketed by the available per-frame kernel
// latency budget. Implemented as a lookup table "to further reduce the
// online cost" (Sec. 3.4).
type BenTable struct {
	BudgetsMS []float64
	// Gain[bucket][kind] is the mean true-mAP improvement.
	Gain [][]float64
}

// Benefit returns Ben({k}) at the given kernel budget. The lookup is
// conservative: for a budget between two buckets it returns the *minimum*
// of the two, so a feature is only credited with gains that hold across
// the whole budget neighborhood (optimistic nearest-bucket lookups pull
// regime-boundary gains into regimes where the feature actually hurts).
func (t *BenTable) Benefit(k feat.Kind, budgetMS float64) float64 {
	if len(t.BudgetsMS) == 0 {
		return 0
	}
	// BudgetsMS is sorted ascending; find the bracketing buckets.
	lo := 0
	for i, b := range t.BudgetsMS {
		if b <= budgetMS {
			lo = i
		}
	}
	hi := lo
	if lo+1 < len(t.BudgetsMS) && t.BudgetsMS[lo] < budgetMS {
		hi = lo + 1
	}
	return math.Min(t.Gain[lo][k], t.Gain[hi][k])
}

// SetBenefit estimates Ben(S) for a feature set with submodular
// diminishing returns: the best singleton counts fully, every further
// feature contributes 30% of its singleton benefit.
func (t *BenTable) SetBenefit(set []feat.Kind, budgetMS float64) float64 {
	if len(set) == 0 {
		return 0
	}
	// Scheduler feature sets never exceed the heavy-kind count, so a
	// fixed stack array keeps this off the heap; the summation below
	// walks the same descending order the old sort produced, so results
	// are bit-identical.
	var scratch [8]float64
	gains := scratch[:0]
	if len(set) > len(scratch) {
		gains = make([]float64, 0, len(set))
	}
	for _, k := range set {
		gains = append(gains, t.Benefit(k, budgetMS))
	}
	for i := 1; i < len(gains); i++ {
		g := gains[i]
		j := i - 1
		for j >= 0 && gains[j] < g {
			gains[j+1] = gains[j]
			j--
		}
		gains[j+1] = g
	}
	total := gains[0]
	for _, g := range gains[1:] {
		if g > 0 {
			total += 0.3 * g
		}
	}
	return total
}

// buildBenTable replays the trained predictors over the training
// snippets: for each budget bucket, the benefit of a feature is the mean
// difference in *true* snippet mAP between the branch its predictor
// selects and the branch the light-only predictor selects, restricted to
// branches whose measured kernel latency fits the bucket.
func buildBenTable(cfg Config, samples []Sample, m *Models) *BenTable {
	t := &BenTable{BudgetsMS: cfg.BudgetsMS}
	t.Gain = make([][]float64, len(cfg.BudgetsMS))
	for gi, budget := range cfg.BudgetsMS {
		t.Gain[gi] = make([]float64, feat.NumKinds)
		counts := 0
		sums := make([]float64, feat.NumKinds)
		for _, s := range samples {
			// Feasible branches under this sample's measured latencies.
			feasible := feasibleSet(s, budget)
			if len(feasible) == 0 {
				continue
			}
			counts++
			baseIdx := argmaxOver(m.PredictAccuracyLight(s.Light), feasible)
			baseTrue := s.MAP[baseIdx]
			for _, k := range feat.HeavyKinds() {
				pred := m.PredictAccuracyContent(k, s.Light, s.Heavy[k])
				idx := argmaxOver(pred, feasible)
				sums[k] += s.MAP[idx] - baseTrue
			}
		}
		if counts > 0 {
			for k := range sums {
				t.Gain[gi][k] = sums[k] / float64(counts)
			}
		}
	}
	return t
}

// feasibleSet returns the branch indices whose measured per-frame kernel
// latency fits the budget.
func feasibleSet(s Sample, budgetMS float64) []int {
	var out []int
	for bi := range s.DetMS {
		if s.DetMS[bi]+s.TrkMS[bi] <= budgetMS {
			out = append(out, bi)
		}
	}
	return out
}

// argmaxOver returns the index in `over` with the highest value.
func argmaxOver(values []float64, over []int) int {
	best := over[0]
	for _, i := range over[1:] {
		if values[i] > values[best] {
			best = i
		}
	}
	return best
}

// SwitchMatrix measures the offline switching-cost matrix over the
// detector-knob grid (shape, nprop), aggregating branches that share a
// detector configuration — the data behind Figure 5(a).
func SwitchMatrix(branches []mbek.Branch) (labels []string, costs [][]float64) {
	type dc struct{ shape, nprop int }
	seen := map[dc]mbek.Branch{}
	var order []dc
	for _, b := range branches {
		k := dc{b.Shape, b.NProp}
		if _, ok := seen[k]; !ok {
			seen[k] = b
			order = append(order, k)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].shape != order[j].shape {
			return order[i].shape < order[j].shape
		}
		return order[i].nprop < order[j].nprop
	})
	labels = make([]string, len(order))
	costs = make([][]float64, len(order))
	for i, k := range order {
		labels[i] = fmt.Sprintf("(%d,%d)", k.shape, k.nprop)
		costs[i] = make([]float64, len(order))
		for j, k2 := range order {
			costs[i][j] = mbek.SwitchCostMS(seen[k], seen[k2])
		}
	}
	return labels, costs
}
