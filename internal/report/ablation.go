package report

import (
	"fmt"
	"strings"

	"litereconfig/internal/contend"
	"litereconfig/internal/core"
	"litereconfig/internal/harness"
	"litereconfig/internal/simlat"
)

// AblationRow is one variant of the full LiteReconfig pipeline in one
// ablation scenario.
type AblationRow struct {
	Variant  string
	Scenario Scenario
	// SafetyFactor is the planning safety factor core.NewPipeline
	// resolved for the variant.
	SafetyFactor float64
	MAP          float64
	P95          float64
	ViolationPct float64 // GoF-averaged frames above the SLO, %
	SchedulerPct float64 // mean per-frame scheduler time, % of the SLO
	Switches     int
}

// ablationScenario is where the cost-aware machinery earns its keep:
// the TX2 at 50 ms under 50% GPU contention.
var ablationScenario = Scenario{Device: simlat.TX2, Contention: 0.5, SLO: 50}

// driftScenario runs on a TX2 whose CPU takes 1.8x the profiled cost,
// while the scheduler plans with the TX2 profile.
var driftScenario = Scenario{Device: throttledTX2(), SLO: 33.3}

func throttledTX2() simlat.Device {
	d := simlat.TX2
	d.Name, d.CPUFactor = "tx2-hot", 1.8
	return d
}

// ablationVariants are the design ablations of DESIGN.md §5. Each
// changes the deployed options of the full pipeline; the drift variants
// run in driftScenario, the others in ablationScenario.
var ablationVariants = []struct {
	label  string
	drift  bool
	mutate func(*core.Options)
}{
	{"deployed", false, nil},
	{"no switch-cost term C(b0,b)", false, func(o *core.Options) { o.DisableSwitchCost = true }},
	{"no switch hysteresis", false, func(o *core.Options) { o.Hysteresis = -1 }},
	{"no feature-cost pricing", false, func(o *core.Options) { o.CostWeight = -1 }},
	{"no planning headroom", false, func(o *core.Options) { o.SafetyFactor = 1 }},
	{"oracle contention", false, func(o *core.Options) { o.OracleContention = true }},
	{"deployed", true, nil},
	{"no CPU-drift estimator", true, func(o *core.Options) { o.DisableDriftCompensation = true }},
}

// ablations evaluates every ablation variant.
func (r *runner) ablations(res *Results) error {
	for _, v := range ablationVariants {
		sc := ablationScenario
		opts := core.Options{Models: r.set.Models, SLO: sc.SLO, Policy: core.PolicyFull}
		if v.drift {
			sc = driftScenario
			assumed := simlat.TX2
			opts.SLO, opts.AssumedDevice = sc.SLO, &assumed
		}
		if v.mutate != nil {
			v.mutate(&opts)
		}
		p, err := core.NewPipeline(opts)
		if err != nil {
			return err
		}
		c := harness.Evaluate(p, r.set.Corpus.Val, sc.Device, sc.SLO,
			contend.Fixed{G: sc.Contention}, 1234)
		res.Ablations = append(res.Ablations, AblationRow{
			Variant: v.label, Scenario: sc,
			SafetyFactor: p.Sched.Options().SafetyFactor,
			MAP:          c.MAP(), P95: c.Latency.P95(),
			ViolationPct: c.Latency.ViolationRate(sc.SLO) * 100,
			SchedulerPct: c.Breakdown.PerFrame("scheduler") / sc.SLO * 100,
			Switches:     c.Switches,
		})
	}
	return nil
}

// formatAblations renders the ablation table.
func formatAblations(res *Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations: LiteReconfig design choices, one option changed per row (tx2-hot = TX2 CPU x1.8, planned as TX2)\n")
	fmt.Fprintf(&b, "%-28s %-18s %6s %7s %8s %8s %8s %8s\n",
		"variant", "scenario", "safety", "mAP(%)", "p95(ms)", "viol(%)", "sched(%)", "switches")
	for _, r := range res.Ablations {
		fmt.Fprintf(&b, "%-28s %-18s %6.2f %7.1f %8.1f %8.2f %8.1f %8d\n",
			r.Variant, r.Scenario, r.SafetyFactor, r.MAP*100, r.P95,
			r.ViolationPct, r.SchedulerPct, r.Switches)
	}
	return b.String()
}
