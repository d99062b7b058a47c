package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"litereconfig/internal/glm"
	"litereconfig/internal/serve"
	"litereconfig/internal/simlat"
	"litereconfig/internal/testutil"
)

// Scoring an already-profiled stream is pure board arithmetic: across
// every board, under mean and risk-aware placement, it allocates
// nothing. Each barrier scores every queued stream on every board, so
// an allocation here is paid boards × streams times per barrier.
func TestScoreBoardsZeroAllocs(t *testing.T) {
	s := setup(t)
	for _, q := range []float64{0, 0.95} {
		f, err := New(Options{
			Models: s.Models,
			Boards: []BoardConfig{
				{Name: "b0"}, {Name: "b1", Coupling: 2},
				{Name: "b2", Device: simlat.Xavier}, {Name: "b3", GPUSlots: 1},
			},
			RiskQuantile: q,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := serve.StreamConfig{Video: video(901, 12), SLO: 50, BaseContention: 0.2}
		prof := f.profile(cfg)
		var sink score
		allocs := testutil.AllocsPerRun(t, 300, func() {
			for _, b := range f.boards {
				sink = f.scoreBoard(b, cfg.SLO, cfg.BaseContention, prof, 0.1)
			}
			_, sink = f.bestBoard(cfg, prof, nil, false)
			_, sink = f.bestBoardQueue(cfg, prof)
		})
		if allocs != 0 {
			t.Fatalf("risk q %v: scoring %d boards allocated %d times per run, want 0",
				q, len(f.boards), allocs)
		}
		if !sink.feasible && sink.lat == 0 {
			t.Fatalf("risk q %v: scoring produced an empty score", q)
		}
	}
}

// Profiling an arrival allocates only its branch profile: the light
// vector and the accuracy row come from fleet-owned scratch. Every
// arrival is profiled on the serial barrier.
func TestProfileAllocsOnlyItsBranches(t *testing.T) {
	s := setup(t)
	f, err := New(Options{Models: s.Models, Boards: []BoardConfig{{Name: "b0"}}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.StreamConfig{Video: video(903, 12), SLO: 50}
	want := f.profile(cfg)
	var prof []branchEst
	allocs := testutil.AllocsPerRun(t, 300, func() { prof = f.profile(cfg) })
	if allocs != 1 {
		t.Fatalf("profiling one stream allocated %d times per run, want 1 (its []branchEst)", allocs)
	}
	for bi := range want {
		if prof[bi] != want[bi] {
			t.Fatalf("branch %d: profile from warm scratch %+v, first profile %+v", bi, prof[bi], want[bi])
		}
	}
}

// fullScanBoard is scoreBoard without the tail shortcuts: the plain
// scan that prices every feasible branch with math.Log and
// glm.AttainProb. It is the reference the shortcuts must match bit for
// bit.
func fullScanBoard(f *Fleet, b *board, slo, floor float64, prof []branchEst, selfOcc float64) score {
	act, qd := b.srv.Occupancy()
	total := act + qd
	foreign := (total - selfOcc) / float64(b.opts.GPUSlots)
	g := floor + b.opts.Coupling*foreign
	if g < 0 {
		g = 0
	}
	if g > 0.99 {
		g = 0.99
	}
	gpu := b.opts.Device.Factor(simlat.GPU)
	cpu := b.opts.Device.Factor(simlat.CPU)
	mult := simlat.ContentionMultiplier(g)
	return fullScanBranches(f.risk, prof, gpu, mult, cpu, slo*f.opts.SafetyFactor, total)
}

func fullScanBranches(risk []branchRisk, prof []branchEst, gpu, mult, cpu, budget, occ float64) score {
	logBudget := math.Log(budget)
	sc := score{occ: occ, acc: -1}
	fallbackLat, fallbackAcc := 0.0, 0.0
	haveFallback := false
	riskOn := risk != nil
	for bi := range prof {
		p := &prof[bi]
		lat := p.det*gpu*mult + p.trk*cpu
		planLat := lat
		if riskOn {
			planLat = lat * risk[bi].quantile
		}
		if planLat <= budget {
			attain := 0.0
			if riskOn && lat > 0 {
				attain = glm.AttainProb(math.Log(lat), risk[bi].logStd, logBudget)
			}
			if !sc.feasible || attain > sc.attain ||
				(attain == sc.attain && p.acc > sc.acc) ||
				(attain == sc.attain && p.acc == sc.acc && lat < sc.lat) {
				sc.feasible, sc.acc, sc.lat, sc.attain = true, p.acc, lat, attain
			}
		} else if !haveFallback || lat < fallbackLat {
			haveFallback, fallbackLat, fallbackAcc = true, lat, p.acc
		}
	}
	if !sc.feasible {
		sc.acc, sc.lat = fallbackAcc, fallbackLat
	}
	return sc
}

// sameScore compares two scores bit for bit.
func sameScore(a, b score) bool {
	bits := math.Float64bits
	return a.feasible == b.feasible && bits(a.acc) == bits(b.acc) &&
		bits(a.lat) == bits(b.lat) && bits(a.occ) == bits(b.occ) &&
		bits(a.attain) == bits(b.attain)
}

// tailStds spans the σ regimes of the shortcuts: none, below and at
// the floor, ordinary residual spreads, and at and beyond the cap.
var tailStds = []float64{
	0, 1e-12, minTailStd, math.Nextafter(minTailStd, 1), 1e-4, 0.01, 0.08,
	0.2, 0.5, 1, 3, maxTailStd, math.Nextafter(maxTailStd, 20), 40,
}

// The tail shortcuts in scoreBranches never change a score: over
// randomized profiles, boards, contention, SLOs and σ, with risk-aware
// placement on and off, scoreBoard equals the plain full scan bit for
// bit; and sweeping a branch's latency in ulp steps across both cut
// points, alone and behind an incumbent that attains with probability
// exactly 1, changes nothing either.
func TestScoreBoardMatchesFullScan(t *testing.T) {
	s := setup(t)
	f, err := New(Options{
		Models: s.Models,
		Boards: []BoardConfig{
			{Name: "b0"}, {Name: "b1", Coupling: 2},
			{Name: "b2", Device: simlat.Xavier}, {Name: "b3", GPUSlots: 1},
		},
		RiskQuantile: 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Load two boards so foreign occupancy enters the contention term.
	for i, bi := range []int{1, 3} {
		if _, err := f.boards[bi].srv.Prepare(1000+i, serve.StreamConfig{
			Video: video(950+int64(i), 12), SLO: 50, EstOccupancy: 0.3 + 0.2*float64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, got, want score) {
		t.Helper()
		if !sameScore(got, want) {
			t.Fatalf("%s: shortcut score %+v, full scan %+v", what, got, want)
		}
	}

	rng := rand.New(rand.NewSource(29))
	accs := []float64{0.2, 0.35, 0.5} // few values, so accuracy ties happen
	var prof []branchEst
	fired := 0
	for it := 0; it < 4000; it++ {
		n := 1 + rng.Intn(12)
		slo := []float64{20, 33.3, 50, 100, 1e-3, 1e5, 1e-300}[rng.Intn(7)]
		budget := slo * f.opts.SafetyFactor
		f.risk = nil
		if it%5 != 0 {
			f.risk = make([]branchRisk, n)
			for bi := range f.risk {
				q := 1.0
				if rng.Intn(3) > 0 {
					q = 1 + 3*rng.Float64()
				}
				f.risk[bi] = newBranchRisk(q, tailStds[rng.Intn(len(tailStds))])
			}
		}
		prof = prof[:0]
		for bi := 0; bi < n; bi++ {
			// Spread latencies over both tails: up to 14σ below the
			// budget, and past it.
			sd := 0.2
			if f.risk != nil {
				sd = math.Max(f.risk[bi].logStd, 1e-3)
			}
			target := budget * math.Exp(-14*sd*rng.Float64()) * (0.6 + 0.6*rng.Float64())
			share := rng.Float64()
			p := branchEst{det: target * share, trk: target * (1 - share), acc: accs[rng.Intn(len(accs))]}
			if rng.Intn(40) == 0 {
				p.det, p.trk = 0, 0
			}
			prof = append(prof, p)
		}
		floor := 1.4*rng.Float64() - 0.2
		selfOcc := rng.Float64() * 0.5
		for _, b := range f.boards {
			got := f.scoreBoard(b, slo, floor, prof, selfOcc)
			check(fmt.Sprintf("iter %d board %s", it, b.name), got,
				fullScanBoard(f, b, slo, floor, prof, selfOcc))
			if got.attain == 1 {
				fired++
			}
		}
	}
	if fired == 0 {
		t.Fatal("no randomized score attained with probability 1; the sure-win path was never exercised")
	}

	// Ulp sweeps across each cut that is on. With gpu = mult = 1 and no
	// tracker share, lat is exactly the detector share.
	const budget = 44.0
	for _, sd := range tailStds {
		r := newBranchRisk(1, sd)
		for _, cut := range []float64{r.winCut, r.loseCut} {
			c := budget * cut
			if c <= 0 || c > budget {
				continue
			}
			lat := c
			for i := 0; i < 64; i++ {
				lat = math.Nextafter(lat, 0)
			}
			for i := 0; i < 128; i++ {
				lat = math.Nextafter(lat, math.Inf(1))
				f.risk = []branchRisk{r}
				alone := []branchEst{{det: lat, acc: 0.3}}
				check(fmt.Sprintf("σ %v lat %v alone", sd, lat),
					f.scoreBranches(alone, 1, 1, 0.7, budget, 0.25),
					fullScanBranches(f.risk, alone, 1, 1, 0.7, budget, 0.25))
				// Behind a sure winner with lower accuracy: the swept
				// branch must win exactly when it also attains 1.
				f.risk = []branchRisk{newBranchRisk(1, 0.01), r}
				behind := []branchEst{{det: budget * 1e-3, acc: 0.2}, {det: lat, acc: 0.3}}
				check(fmt.Sprintf("σ %v lat %v behind", sd, lat),
					f.scoreBranches(behind, 1, 1, 0.7, budget, 0.25),
					fullScanBranches(f.risk, behind, 1, 1, 0.7, budget, 0.25))
			}
		}
	}
}
