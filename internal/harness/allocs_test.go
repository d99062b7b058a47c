package harness_test

import (
	"testing"

	"litereconfig/internal/adapt"
	"litereconfig/internal/contend"
	"litereconfig/internal/core"
	"litereconfig/internal/fault"
	"litereconfig/internal/fixture"
	"litereconfig/internal/harness"
	"litereconfig/internal/mbek"
	"litereconfig/internal/simlat"
	"litereconfig/internal/testutil"
	"litereconfig/internal/vid"
)

// TestStepAllocsCeiling bounds the allocations of one harness GoF step
// (decision, kernel execution, frame results, feedback) over a whole
// 60-frame stream of the full policy at SLO 50. The ceilings are the
// counts measured when the guard was written; an allocation taken off
// the step lowers them, and nothing may raise them.
func TestStepAllocsCeiling(t *testing.T) {
	s, err := fixture.Small()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1
	faults := fault.Config{Seed: seed + 5, SpikeRate: 0.05, ExtractFailRate: 0.08}
	for _, c := range []struct {
		name       string
		contention float64
		faults     bool
		adapt      bool
		riskQ      float64
		ceiling    uint64
	}{
		{name: "plain", contention: 0.1, ceiling: 19},
		{name: "faults", contention: 0.1, faults: true, ceiling: 19},
		{name: "adapt", contention: 0.1, adapt: true, ceiling: 23},
		{name: "risk0.95", contention: 0.3, riskQ: 0.95, ceiling: 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			models, err := s.Models.Clone()
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{Models: models, SLO: 50, Policy: core.PolicyFull, RiskQuantile: c.riskQ}
			if c.adapt {
				opts.Adapt = &adapt.Config{}
			}
			p, err := core.NewPipeline(opts)
			if err != nil {
				t.Fatal(err)
			}
			clock := simlat.NewClock(simlat.TX2, seed)
			clock.SetContention(c.contention)
			v := vid.Generate("step-allocs", seed*101, vid.GenConfig{Frames: 60})
			st := harness.NewStepper(mbek.NewKernel(p.Det, clock), p.Sched, []*vid.Video{v},
				clock, contend.Fixed{G: c.contention}, &harness.Result{})
			if c.faults {
				p.Sched.SetInjector(fault.NewInjector(faults, seed))
				st.SetInjector(fault.NewInjector(faults, seed))
			}
			allocs, bytes := testutil.MeasureAllocs(t, nil, st.Step, nil)
			if allocs > c.ceiling {
				t.Errorf("%d allocs (%d B) per GoF step, ceiling %d", allocs, bytes, c.ceiling)
			}
		})
	}
}
