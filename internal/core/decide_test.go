package core

import (
	"testing"

	"litereconfig/internal/feat"
	"litereconfig/internal/mbek"
	"litereconfig/internal/simlat"
)

// TestParsePolicyInvertsName: ParsePolicy maps every variant's Name
// back to the variant (and the forced feature), accepts the short
// tokens, and rejects a forced light feature and unknown names.
func TestParsePolicyInvertsName(t *testing.T) {
	type variant struct {
		p Policy
		k feat.Kind
	}
	var all []variant
	for p := PolicyFull; p < PolicyForceFeature; p++ {
		all = append(all, variant{p, 0})
	}
	for _, k := range feat.HeavyKinds() {
		all = append(all, variant{PolicyForceFeature, k})
	}
	for _, v := range all {
		name := (&Scheduler{opts: Options{Policy: v.p, ForcedFeature: v.k}}).Name()
		p, k, err := ParsePolicy(name)
		if err != nil || p != v.p || k != v.k {
			t.Errorf("ParsePolicy(%q) = %v, %v, %v; want %v, %v", name, p, k, err, v.p, v.k)
		}
	}
	tokens := map[string]variant{
		"full":                 {PolicyFull, 0},
		"mincost":              {PolicyMinCost, 0},
		"maxcontent-resnet":    {PolicyMaxContentResNet, 0},
		"resnet":               {PolicyMaxContentResNet, 0},
		"maxcontent-mobilenet": {PolicyMaxContentMobileNet, 0},
		"mobilenet":            {PolicyMaxContentMobileNet, 0},
		" Force-HOG ":          {PolicyForceFeature, feat.HOG},
	}
	for tok, v := range tokens {
		if p, k, err := ParsePolicy(tok); err != nil || p != v.p || k != v.k {
			t.Errorf("ParsePolicy(%q) = %v, %v, %v; want %v, %v", tok, p, k, err, v.p, v.k)
		}
	}
	for _, bad := range []string{"", "unknown", "LiteReconfig-Force-light", "force-light",
		"LiteReconfig-Force-", "LiteReconfig-Force-bogus", "LiteReconfig-Oracle"} {
		if _, _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}

// TestDecideZeroAllocs pins the hot-path invariant: a warm Decide of the
// full policy allocates nothing, including decisions that select and
// extract heavy features, with mean and with risk admission.
func TestDecideZeroAllocs(t *testing.T) {
	s := setup(t)
	for _, q := range []float64{0, 0.95} {
		schd, err := New(Options{Models: s.Models, SLO: 100, Policy: PolicyFull, RiskQuantile: q})
		if err != nil {
			t.Fatal(err)
		}
		v := s.Corpus.Val[0]
		clock := simlat.NewClock(simlat.TX2, 3)
		k := mbek.NewKernel(schd.models.Det, clock)
		k.Start(v)
		i := 0
		decide := func() {
			k.SetBranch(schd.Decide(k, clock, v, v.Frames[i%len(v.Frames)]), i)
			i++
		}
		for j := 0; j < 20; j++ {
			decide()
		}
		before := schd.FeatureUse()
		if allocs := testing.AllocsPerRun(50, decide); allocs != 0 {
			t.Errorf("risk q=%v: %v allocs per warm Decide, want 0", q, allocs)
		}
		used := 0
		for kind, n := range schd.FeatureUse() {
			used += n - before[kind]
		}
		if used == 0 {
			t.Errorf("risk q=%v: no heavy feature selected in the measured window", q)
		}
	}
}
