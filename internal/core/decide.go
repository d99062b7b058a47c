package core

import (
	"fmt"
	"math"
	"strings"

	"litereconfig/internal/feat"
	"litereconfig/internal/mbek"
	"litereconfig/internal/sched"
)

// maxDegradeLevel is the watchdog ladder's floor: at this level the
// scheduler gives up on feasibility reasoning entirely and runs the
// absolute cheapest branch until GoFs come back under budget.
const maxDegradeLevel = 2

// heavyKinds is feat.HeavyKinds, the analyzer's candidate order.
var heavyKinds = feat.HeavyKinds()

// LadderStep moves the watchdog one rung along the branch ladder: down
// toward the floor after an over-SLO GoF, back up after one within it.
func LadderStep(level int, overrun bool) int {
	if overrun {
		return min(level+1, maxDegradeLevel)
	}
	return max(level-1, 0)
}

// ManagesOverhead reports whether the variant charges its own scheduler
// and switching cost against the SLO. The greedy MaxContent and
// ForceFeature variants apply the SLO to the execution kernel only.
func (p Policy) ManagesOverhead() bool {
	return p != PolicyMaxContentResNet && p != PolicyMaxContentMobileNet && p != PolicyForceFeature
}

// ParsePolicy maps a policy name back to the variant and, for
// PolicyForceFeature, the forced heavy feature. It inverts
// Scheduler.Name ("LiteReconfig-Force-resnet50") and also accepts the
// short lower-case tokens ("full", "mincost", "maxcontent-resnet",
// "resnet", "maxcontent-mobilenet", "mobilenet", "force-<feature>").
func ParsePolicy(name string) (Policy, feat.Kind, error) {
	t := strings.TrimPrefix(strings.ToLower(strings.TrimSpace(name)), "litereconfig-")
	switch t {
	case "full", "litereconfig":
		return PolicyFull, 0, nil
	case "mincost":
		return PolicyMinCost, 0, nil
	case "maxcontent-resnet", "resnet":
		return PolicyMaxContentResNet, 0, nil
	case "maxcontent-mobilenet", "mobilenet":
		return PolicyMaxContentMobileNet, 0, nil
	}
	if rest, ok := strings.CutPrefix(t, "force-"); ok {
		if k, ok := feat.KindByName(rest); ok && k.Heavy() {
			return PolicyForceFeature, k, nil
		}
	}
	return 0, 0, fmt.Errorf("core: unknown policy %q", name)
}

// DecisionInput is everything the paper's online procedure reads at one
// GoF boundary: the cost-benefit analyzer of Sec. 3.4 (SelectFeatures)
// and the constrained optimization of Eq. 3 (ChooseBranch). The live
// scheduler fills it from its sensors and models; counterfactual replay
// fills it from a recorded payload. Between the two calls the caller
// extracts the selected features and sets Acc and SchedSpentMS.
type DecisionInput struct {
	Branches []mbek.Branch
	Ben      *sched.BenTable

	// BudgetMS is the planning budget SLOMS x SafetyFactor; S0MS is the
	// light-feature scheduler cost the analyzer charges every set.
	BudgetMS, SLOMS, SafetyFactor float64
	Hysteresis, CostWeight, S0MS  float64
	Policy                        Policy
	Forced                        feat.Kind // PolicyForceFeature's feature
	ManageOverhead, NoSwitch      bool
	Cur                           int // index of the current branch, -1 when none
	HasCur                        bool
	AccLight, KernelMS            []float64
	SwitchMS                      []float64 // C(cur, b) per branch; read only when HasCur
	FeatCostMS                    [feat.NumKinds]float64
	DegradeLevel                  int
	BreakerOpen                   bool
	RiskF, FailP                  []float64 // per-branch risk tables; nil under mean admission
	Acc                           []float64 // content-aware accuracy of the extracted set
	SchedSpentMS                  float64   // scheduler time spent before Eq. 3
}

// FeatureScratch is SelectFeatures' reusable working memory; the
// returned set aliases it until the next call.
type FeatureScratch struct {
	set, remaining, cand []feat.Kind
	// live lists the branches that fit the budget with no heavy feature,
	// in ascending order; prunable says the pruned scan is exact. all
	// lists every branch, for the full scan.
	live, all []int32
	prunable  bool
}

// SelectFeatures is Step 2: the variant's heavy-feature set. The full
// policy runs the cost-benefit analyzer unless the watchdog is shedding
// load or the breaker has disconnected the heavy path; the second value
// is the analyzer's verdict (zero for the fixed-feature variants).
func (in *DecisionInput) SelectFeatures(scr *FeatureScratch) ([]feat.Kind, float64) {
	set := scr.set[:0]
	switch in.Policy {
	case PolicyMaxContentResNet:
		set = append(set, feat.ResNet50)
	case PolicyMaxContentMobileNet:
		set = append(set, feat.MobileNetV2)
	case PolicyForceFeature:
		set = append(set, in.Forced)
	case PolicyFull:
		if in.DegradeLevel == 0 && !in.BreakerOpen {
			return in.analyze(scr)
		}
	}
	scr.set = set
	return set, 0
}

// analyze is the cost-benefit analyzer (Sec. 3.4): the nested greedy
// optimization that adds heavy features one at a time as long as the
// benefit-table gain survives the shrinking kernel budget. It never
// extracts a heavy feature — costs come from FeatCostMS and benefits
// from the offline Ben table. The verdict is the net objective gain
// (predicted mAP, cost-priced) of the selected set over scheduling with
// light features only — zero when the set is empty.
func (in *DecisionInput) analyze(scr *FeatureScratch) ([]feat.Kind, float64) {
	// Tail-latency stall guard: feature extraction runs synchronously at
	// the GoF boundary, so a feature whose one-shot cost dwarfs the SLO
	// stalls several consecutive frames past the objective no matter how
	// it amortizes — exactly why MaxContent-MobileNet violates the tight
	// SLOs in Table 2. Candidates whose stall exceeds stallCap frames'
	// worth of budget are excluded outright.
	const stallFactor = 1.5
	stallCap := stallFactor * in.SLOMS

	set := scr.set[:0]
	curVal := in.value(set, scr)
	baseVal := curVal
	remaining := scr.remaining[:0]
	for _, k := range heavyKinds {
		if in.FeatCostMS[k] <= stallCap {
			remaining = append(remaining, k)
		}
	}
	for len(remaining) > 0 {
		bestIdx := -1
		bestVal := curVal
		for i, cand := range remaining {
			trial := append(append(scr.cand[:0], set...), cand)
			scr.cand = trial
			if v := in.value(trial, scr); v > bestVal+1e-9 {
				bestVal = v
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		set = append(set, remaining[bestIdx])
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		curVal = bestVal
	}
	scr.set, scr.remaining = set, remaining[:0]
	gain := curVal - baseVal
	if len(set) == 0 || math.IsInf(gain, 0) || math.IsNaN(gain) {
		gain = 0
	}
	return set, gain
}

// value returns the analyzer's objective for a candidate feature set:
// the best feasible content-agnostic accuracy plus the set's tabled
// benefit minus the accuracy-equivalent price of the scheduler latency
// it spends, or -Inf when no branch fits.
//
// The empty set is analyze's first query; its scan records the
// branches that fit into scr.live. A heavy feature only adds cost: for
// a set whose summed cost is >= 0, every term of a branch's admission
// test is at least its empty-set value, because IEEE rounding is
// monotone (and dividing by a positive GoF keeps the order), so a
// branch that failed the test then fails it now. The scan of such a
// set visits only scr.live, in the same ascending order, and finds the
// same best branch and kernel budget as the full scan. A negative or
// NaN summed cost, or a branch with a GoF below 1, falls back to the
// full scan.
func (in *DecisionInput) value(set []feat.Kind, scr *FeatureScratch) float64 {
	var featCost float64
	for _, kind := range set {
		featCost += in.FeatCostMS[kind]
	}
	record := len(set) == 0
	idx := scr.live
	if record || !scr.prunable || !(featCost >= 0) {
		if len(scr.all) != len(in.Branches) {
			scr.all = scr.all[:0]
			for bi := range in.Branches {
				scr.all = append(scr.all, int32(bi))
			}
		}
		idx = scr.all
	}
	if record {
		scr.live, scr.prunable = scr.live[:0], true
	}
	best := math.Inf(-1)
	kernelBudget := 0.0
	bestGoF := 1.0
	base := in.S0MS + featCost
	withSwitch := in.HasCur && !in.NoSwitch
	for _, bi := range idx {
		gof := in.Branches[bi].GoF
		over := base
		if withSwitch {
			over += in.SwitchMS[bi]
		}
		perFrame := over / float64(gof)
		if record && gof < 1 {
			scr.prunable = false
		}
		if in.KernelMS[bi]+perFrame > in.BudgetMS {
			continue
		}
		if record {
			scr.live = append(scr.live, bi)
		}
		if in.AccLight[bi] > best {
			best = in.AccLight[bi]
			bestGoF = float64(gof)
		}
		if kb := in.BudgetMS - perFrame; kb > kernelBudget {
			kernelBudget = kb
		}
	}
	if math.IsInf(best, -1) {
		return best
	}
	// The Ben table was built on true measured kernel latencies; the
	// online budget carries the planning safety factor, so divide it out
	// to query on the same scale.
	v := best + in.Ben.SetBenefit(set, kernelBudget/in.SafetyFactor)
	if in.CostWeight > 0 {
		v -= in.CostWeight * (featCost / bestGoF) / in.BudgetMS
	}
	return v
}

// Choice is the answer of Eq. 3.
type Choice struct {
	Branch   int
	Feasible int  // branches that passed the admission test
	Fallback bool // nothing fit: the cheapest branch runs
	// PredMS is the chosen branch's predicted per-frame latency: the
	// kernel estimate plus, under managed overhead, the amortized
	// scheduler and switching cost.
	PredMS float64
}

// ChooseBranch is Step 4, the constrained optimization of Eq. 3: the
// most accurate branch whose predicted per-frame latency (lifted to its
// risk quantile when risk admission is on) fits the budget. The
// per-invocation costs amortize over the candidate branch's GoF, since
// the scheduler re-evaluates once per GoF (Sec. 3.5).
func (in *DecisionInput) ChooseBranch() Choice {
	best, feasible := -1, 0
	bestScore, bestLat := math.Inf(-1), math.Inf(1)
	for bi := range in.Branches {
		pf := in.perFrameMS(bi) + in.riskMarginMS(bi)
		if pf > in.BudgetMS {
			continue
		}
		feasible++
		if in.DegradeLevel > 0 {
			// Watchdog ladder: stop maximizing accuracy and shed latency
			// by picking the *cheapest* SLO-feasible branch.
			if pf < bestLat {
				bestLat = pf
				best = bi
			}
			continue
		}
		score := in.Acc[bi]
		if in.RiskF != nil {
			// Discount by the tracker-failure probability: the argmax
			// maximizes accuracy *conditional on the branch surviving its
			// GoF*.
			score *= 1 - in.FailP[bi]
		}
		if in.HasCur && bi == in.Cur && in.Hysteresis > 0 && in.Policy == PolicyFull {
			score += in.Hysteresis
		}
		if score > bestScore {
			bestScore = score
			best = bi
		}
	}
	if in.DegradeLevel >= maxDegradeLevel {
		// At the ladder floor, feasibility reasoning itself is distrusted
		// (the predictions just missed) and the absolute cheapest branch
		// runs.
		best = in.cheapest()
	}
	c := Choice{Feasible: feasible, Fallback: best < 0}
	if c.Fallback {
		// Nothing fits: fall back to the cheapest branch by predicted
		// latency, degrading accuracy rather than stalling.
		best = in.cheapest()
	}
	c.Branch = best
	c.PredMS = in.perFrameMS(best)
	return c
}

// perFrameMS prices branch bi for the admission test.
func (in *DecisionInput) perFrameMS(bi int) float64 {
	if !in.ManageOverhead {
		return in.KernelMS[bi]
	}
	return in.KernelMS[bi] + in.overheadMS(bi)
}

// overheadMS is branch bi's amortized per-frame scheduler and switching
// cost under managed overhead.
func (in *DecisionInput) overheadMS(bi int) float64 {
	over := in.SchedSpentMS
	if in.HasCur && !in.NoSwitch {
		over += in.SwitchMS[bi]
	}
	return over / float64(in.Branches[bi].GoF)
}

// riskMarginMS is the extra per-frame milliseconds the q-quantile adds
// over the mean for branch bi (0 under mean admission).
func (in *DecisionInput) riskMarginMS(bi int) float64 {
	if in.RiskF == nil {
		return 0
	}
	return in.KernelMS[bi] * (in.RiskF[bi] - 1)
}

// cheapest returns the branch with the lowest kernel estimate.
func (in *DecisionInput) cheapest() int {
	best := 0
	for bi := range in.KernelMS {
		if in.KernelMS[bi] < in.KernelMS[best] {
			best = bi
		}
	}
	return best
}
