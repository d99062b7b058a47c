package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"litereconfig/internal/adapt"
	"litereconfig/internal/fault"
	"litereconfig/internal/feat"
	"litereconfig/internal/fixture"
	"litereconfig/internal/mbek"
	"litereconfig/internal/sched"
	"litereconfig/internal/simlat"
	"litereconfig/internal/testutil"
	"litereconfig/internal/vid"
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

// decideWindow is what decideAllocs measured over its window.
type decideWindow struct {
	allocs       uint64 // allocations per warm Decide, rounded up
	heavy        int    // heavy features extracted
	switches     int    // times the kernel's branch changed
	extractFails int    // heavy-feature extractions the injector failed
}

// decideAllocs counts the allocations per warm Decide: 20 warm-up
// decisions, then 300 measured ones, each followed by its SetBranch
// outside the measured window (the kernel's switch log grows with the
// run, and that is kernel memory, not the decision path's). move, when
// non-nil, runs before each SetBranch, also outside the window. inj,
// when non-nil, is the injector installed on schd; its extraction
// failures are counted over the window.
func decideAllocs(t *testing.T, schd *Scheduler, k *mbek.Kernel, clock *simlat.Clock, v *vid.Video, inj *fault.Injector, move func(i int)) decideWindow {
	const warmup, decisions = 20, 300
	i := 0
	var b mbek.Branch
	decide := func() { b = schd.Decide(k, clock, v, v.Frames[i%len(v.Frames)]) }
	apply := func() {
		if move != nil {
			move(i)
		}
		k.SetBranch(b, i)
		i++
	}
	var w decideWindow
	var before map[feat.Kind]int
	w.allocs, _ = testutil.MeasureAllocs(t,
		func() {
			for i < warmup {
				decide()
				apply()
			}
			before = schd.FeatureUse()
			w.switches = -k.Switches()
			if inj != nil {
				w.extractFails = -inj.Counts()["extract_fail"]
			}
		},
		func() bool {
			if i == warmup+decisions {
				return false
			}
			decide()
			return true
		},
		apply)
	for kind, n := range schd.FeatureUse() {
		w.heavy += n - before[kind]
	}
	w.switches += k.Switches()
	if inj != nil {
		w.extractFails += inj.Counts()["extract_fail"]
	}
	return w
}

// TestDecideZeroAllocs pins the hot-path invariant: a warm Decide of the
// full policy allocates nothing, under every decision configuration the
// serving paths exercise. At SLO 50 the scheduler runs under contention,
// a fault injector, the online adapter and risk admission, but selects
// no heavy feature. At SLO 100 the analyzer selects and extracts heavy
// features, with mean and with risk admission, and with the fault
// injector failing some of those extractions or the online adapter
// correcting the models.
func TestDecideZeroAllocs(t *testing.T) {
	s := setup(t)
	for _, c := range []struct {
		name       string
		slo        float64
		contention float64
		riskQ      float64
		faults     bool
		adapt      bool
	}{
		{name: "slo100", slo: 100},
		{name: "slo100_risk0.95", slo: 100, riskQ: 0.95},
		{name: "slo100_faults", slo: 100, faults: true},
		{name: "slo100_adapt", slo: 100, adapt: true},
		{name: "slo50_contention0.1", slo: 50, contention: 0.1},
		{name: "slo50_contention0.3", slo: 50, contention: 0.3},
		{name: "slo50_faults", slo: 50, contention: 0.1, faults: true},
		{name: "slo50_adapt", slo: 50, contention: 0.1, adapt: true},
		{name: "slo50_risk0.95", slo: 50, contention: 0.3, riskQ: 0.95},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := Options{Models: s.Models, SLO: c.slo, Policy: PolicyFull, RiskQuantile: c.riskQ}
			if c.adapt {
				models, err := s.Models.Clone()
				if err != nil {
					t.Fatal(err)
				}
				opts.Models = models
				opts.Adapt = &adapt.Config{}
			}
			schd, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			var inj *fault.Injector
			if c.faults {
				inj = fault.NewInjector(fault.Config{Seed: 6, SpikeRate: 0.05, ExtractFailRate: 0.08}, 1)
				schd.SetInjector(inj)
			}
			v := s.Corpus.Val[0]
			clock := simlat.NewClock(simlat.TX2, 3)
			clock.SetContention(c.contention)
			k := mbek.NewKernel(schd.models.Det, clock)
			k.Start(v)
			w := decideAllocs(t, schd, k, clock, v, inj, nil)
			if w.allocs != 0 {
				t.Errorf("%d allocs per warm Decide, want 0", w.allocs)
			}
			if c.slo == 100 && w.heavy == 0 {
				t.Error("no heavy feature selected in the measured window")
			}
			if c.slo == 100 && c.faults && w.extractFails == 0 {
				t.Error("no heavy-feature extraction failed in the measured window")
			}
		})
	}
}

// BenchmarkDecide times one warm Decide of the full policy at a loose
// SLO, where the analyzer selects and extracts heavy features, under
// mean and under risk admission. Each iteration applies the chosen
// branch, so switches and their C(cur, ·) refills are part of the cost.
// DESIGN.md §14 "Decision hot path" gives the profiling recipe.
func BenchmarkDecide(b *testing.B) {
	s, err := fixture.Small()
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []float64{0, 0.95} {
		b.Run(fmt.Sprintf("risk_q=%v", q), func(b *testing.B) {
			schd, err := New(Options{Models: s.Models, SLO: 100, Policy: PolicyFull, RiskQuantile: q})
			if err != nil {
				b.Fatal(err)
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
			b.ReportAllocs()
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				decide()
			}
		})
	}
}

// fullValue is the analyzer objective computed with the full branch
// scan for every set, the reference for value's pruned scan.
func fullValue(in *DecisionInput, set []feat.Kind) float64 {
	var featCost float64
	for _, kind := range set {
		featCost += in.FeatCostMS[kind]
	}
	best := math.Inf(-1)
	kernelBudget := 0.0
	bestGoF := 1.0
	for bi, b := range in.Branches {
		over := in.S0MS + featCost
		if in.HasCur && !in.NoSwitch {
			over += in.SwitchMS[bi]
		}
		if in.KernelMS[bi]+over/float64(b.GoF) > in.BudgetMS {
			continue
		}
		if in.AccLight[bi] > best {
			best = in.AccLight[bi]
			bestGoF = float64(b.GoF)
		}
		if kb := in.BudgetMS - over/float64(b.GoF); kb > kernelBudget {
			kernelBudget = kb
		}
	}
	if math.IsInf(best, -1) {
		return best
	}
	v := best + in.Ben.SetBenefit(set, kernelBudget/in.SafetyFactor)
	if in.CostWeight > 0 {
		v -= in.CostWeight * (featCost / bestGoF) / in.BudgetMS
	}
	return v
}

// TestPrunedValueMatchesFullScan checks the analyzer's pruned branch
// scan bit for bit against the full scan over every heavy-feature
// subset, with feature costs that are zero, tiny, large, infinite,
// negative and NaN, switch costs on and off, and a branch space with a
// GoF below 1 (where pruning must switch itself off).
func TestPrunedValueMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	costs := []float64{0, math.Copysign(0, -1), 1e-300, 0.4, 3, 25, 400, math.Inf(1), -0.5, -40, math.NaN()}
	ben := &sched.BenTable{BudgetsMS: []float64{5, 20, 60}}
	for range ben.BudgetsMS {
		row := make([]float64, feat.NumKinds)
		for k := range row {
			row[k] = rng.NormFloat64() * 0.02
		}
		ben.Gain = append(ben.Gain, row)
	}
	kinds := feat.HeavyKinds()
	var scr FeatureScratch
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		in := DecisionInput{
			Ben: ben, BudgetMS: 5 + rng.Float64()*60, SafetyFactor: 0.88,
			CostWeight: 0.08, S0MS: rng.Float64() * 3,
			HasCur: rng.Intn(3) > 0, NoSwitch: rng.Intn(4) == 0,
			AccLight: make([]float64, n), KernelMS: make([]float64, n), SwitchMS: make([]float64, n),
		}
		for bi := 0; bi < n; bi++ {
			gof := 1 + rng.Intn(8)
			if trial%10 == 9 && bi == n-1 {
				gof = -rng.Intn(3) // invalid GoF: pruning must not apply
			}
			in.Branches = append(in.Branches, mbek.Branch{Shape: 128, NProp: 10, GoF: gof, DS: 1})
			in.AccLight[bi] = rng.Float64()
			in.KernelMS[bi] = rng.Float64() * 70
			in.SwitchMS[bi] = rng.Float64() * 10
		}
		for _, k := range kinds {
			in.FeatCostMS[k] = costs[rng.Intn(len(costs))]
		}
		if got, want := in.value(nil, &scr), fullValue(&in, nil); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: empty set value %v, full scan %v", trial, got, want)
		}
		for mask := 1; mask < 1<<len(kinds); mask++ {
			var set []feat.Kind
			for i, k := range kinds {
				if mask&(1<<i) != 0 {
					set = append(set, k)
				}
			}
			got, want := in.value(set, &scr), fullValue(&in, set)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("trial %d set %v (costs %v): pruned value %v, full scan %v", trial, set, in.FeatCostMS, got, want)
			}
		}
	}
}

// TestDecideZeroAllocsAcrossSwitches is TestDecideZeroAllocs with the
// current branch moved before every other decision, so the cached
// C(cur, ·) row is repriced inside the measured window, with and without
// the online adapter. With the adapter each move also feeds the realized
// switch cost back, so the repriced rows read its per-pair overrides.
func TestDecideZeroAllocsAcrossSwitches(t *testing.T) {
	s := setup(t)
	for _, adaptOn := range []bool{false, true} {
		opts := Options{Models: s.Models, SLO: 100, Policy: PolicyFull}
		if adaptOn {
			models, err := s.Models.Clone()
			if err != nil {
				t.Fatal(err)
			}
			opts.Models = models
			opts.Adapt = &adapt.Config{Label: "test", SwitchMinSamples: 1}
		}
		schd, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		v := s.Corpus.Val[0]
		clock := simlat.NewClock(simlat.TX2, 3)
		k := mbek.NewKernel(schd.models.Det, clock)
		k.Start(v)
		bs := schd.models.Branches
		// Move off the chosen branch so the next decision prices a
		// different C(cur, ·) row.
		move := func(i int) {
			if i%2 == 1 {
				prev, to := k.Branch(), bs[(i*7)%len(bs)]
				if cost := k.SetBranch(to, i); cost > 0 {
					schd.ObserveSwitch(prev, to, cost)
				}
			}
		}
		w := decideAllocs(t, schd, k, clock, v, nil, move)
		if w.allocs != 0 {
			t.Errorf("adapt=%v: %d allocs per warm Decide across switches, want 0", adaptOn, w.allocs)
		}
		if w.switches == 0 {
			t.Errorf("adapt=%v: the current branch never changed in the measured window", adaptOn)
		}
		if adaptOn {
			overridden := 0
			for _, to := range bs {
				if _, ok := schd.adapter.SwitchCostMS(k.Branch(), to); ok {
					overridden++
				}
			}
			if overridden == 0 {
				t.Error("adapt=true: no switch-cost override on the current branch's row")
			}
		}
	}
}

// TestSwitchRowMatchesFreshPricing checks the cached C(cur, ·) row
// against a fresh per-pair pricing after every decision of a run with
// the online adapter, whose observed switch costs override the offline
// model pair by pair, including observations that change the current
// branch's own row while the kernel stays on it.
func TestSwitchRowMatchesFreshPricing(t *testing.T) {
	s := setup(t)
	models, err := s.Models.Clone()
	if err != nil {
		t.Fatal(err)
	}
	schd, err := New(Options{Models: models, SLO: 50, Policy: PolicyFull,
		Adapt: &adapt.Config{Label: "test", SwitchMinSamples: 1}})
	if err != nil {
		t.Fatal(err)
	}
	v := s.Corpus.Val[0]
	clock := simlat.NewClock(simlat.TX2, 5)
	k := mbek.NewKernel(schd.models.Det, clock)
	k.Start(v)
	bs := schd.models.Branches
	overridden := 0
	for i := 0; i < 300; i++ {
		if i%3 == 2 {
			prev, to := k.Branch(), bs[(i*5)%len(bs)]
			if cost := k.SetBranch(to, i); cost > 0 {
				schd.ObserveSwitch(prev, to, cost)
			}
		}
		prev := k.Branch()
		b := schd.Decide(k, clock, v, v.Frames[i%len(v.Frames)])
		if cost := k.SetBranch(b, i); cost > 0 {
			schd.ObserveSwitch(prev, b, cost)
		}
		if !k.HasBranch() {
			continue
		}
		cur := k.Branch()
		if i%4 == 0 {
			// An observation for the current branch's own row, fed while
			// the kernel stays put: the cached row must reprice.
			schd.ObserveSwitch(cur, bs[(i*3)%len(bs)], 1+float64(i%7))
		}
		row, idx := schd.switchRow(cur)
		for bi, to := range bs {
			want := mbek.SwitchCostMS(cur, to)
			if ms, ok := schd.adapter.SwitchCostMS(cur, to); ok {
				want = ms
				overridden++
			}
			if math.Float64bits(row[bi]) != math.Float64bits(want) {
				t.Fatalf("decision %d: C(%v, %v) = %v cached, %v fresh", i, cur, to, row[bi], want)
			}
			if to == cur && idx != bi {
				t.Fatalf("decision %d: cached index %d, want %d", i, idx, bi)
			}
		}
	}
	if overridden == 0 {
		t.Fatal("no adapter override was exercised")
	}
}
