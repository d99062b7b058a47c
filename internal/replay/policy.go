package replay

import (
	"fmt"
	"strings"

	"litereconfig/internal/sched"
)

// DegradeKnob selects how replay treats the graceful-degradation state
// (watchdog branch ladder + heavy-feature circuit breaker).
type DegradeKnob int

const (
	// DegradeRecorded replays under the recorded per-decision ladder
	// level and breaker state — the identity-preserving default.
	DegradeRecorded DegradeKnob = iota
	// DegradeOff forces the ladder and breaker off: the counterfactual
	// where the run never degraded (chaos-absorption ablation).
	DegradeOff
	// DegradeSim re-simulates the watchdog ladder from each chain's
	// estimated GoF outcomes against the replay SLO, so a sweep to a
	// tighter SLO also sheds load the way the live watchdog would. The
	// breaker stays on its recorded state — extraction failures are
	// environmental, not policy.
	DegradeSim
)

// ParseDegrade maps the lr replay -degrade token to a knob.
func ParseDegrade(s string) (DegradeKnob, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "recorded":
		return DegradeRecorded, nil
	case "off":
		return DegradeOff, nil
	case "sim":
		return DegradeSim, nil
	}
	return 0, fmt.Errorf("replay: unknown degrade mode %q (want recorded, off or sim)", s)
}

// Config configures a replay Engine. The zero value of every knob means
// "as recorded", so Config{Models: m} is the identity configuration the
// fidelity invariant is checked under.
type Config struct {
	// Models is the trained bundle the trace was served from (or an
	// alternate bundle for what-if runs): the replay engine takes the
	// branch space, the Ben(f_H) benefit table and — for decisions whose
	// replayed feature set differs from the recording — the content-
	// accuracy models from here. Required; identity replay further
	// requires the same bundle the recording used.
	Models *sched.Models
	// SLOMS overrides every decision's recorded SLO (> 0); zero keeps
	// the per-stream recorded objectives.
	SLOMS float64
	// SafetyFactor overrides the recorded planning safety factor (> 0).
	SafetyFactor float64
	// Hysteresis, CostWeight and DisableSwitchCost override the
	// corresponding recorded knobs when non-nil.
	Hysteresis        *float64
	CostWeight        *float64
	DisableSwitchCost *bool
	// Degrade selects the graceful-degradation treatment.
	Degrade DegradeKnob
	// Policy overrides the recorded scheduler variant for every decision
	// ("full", "mincost", "maxcontent-resnet", "maxcontent-mobilenet",
	// "force-<feature>"); empty replays each decision's recorded variant.
	Policy string
	// RiskQuantile overrides the probabilistic-admission quantile when
	// non-nil: a positive value re-admits every decision at that
	// q-quantile, deriving the per-branch inflation factors and
	// tracker-failure probabilities from Models (the "what if we had
	// served risk-aware at q" counterfactual); zero forces mean
	// admission even over risk-recorded corpora (the ablation). Nil
	// replays each decision as recorded — the payload's own risk factors
	// when it is a risk-admitted recording (PolicyRev ≥ 1), mean
	// admission otherwise — which is what identity replay requires.
	RiskQuantile *float64
	// UseModelPredictions recomputes the per-branch accuracy and latency
	// tables from Models and the recorded feature vectors and scale
	// factors, instead of trusting the recorded tables — the "what if we
	// had served from these models" mode (frozen alternates or adapted
	// bundles from the registry). Off, the recorded tables are used and
	// Models only supplies the Ben table, branch space and content
	// models for off-recording feature sets.
	UseModelPredictions bool
}
