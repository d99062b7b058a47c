package perf

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"litereconfig/internal/adapt"
	"litereconfig/internal/contend"
	"litereconfig/internal/core"
	"litereconfig/internal/fault"
	"litereconfig/internal/fleet"
	"litereconfig/internal/harness"
	"litereconfig/internal/mbek"
	"litereconfig/internal/obs"
	"litereconfig/internal/sched"
	"litereconfig/internal/serve"
	"litereconfig/internal/simlat"
	"litereconfig/internal/vid"
)

// RunOptions tunes a sweep.
type RunOptions struct {
	// Seed drives every cell's stochastic realization. Default 1.
	Seed int64
	// DecisionOps is the measured iteration count of the decision-path
	// allocation loop (after warmup). Default 300.
	DecisionOps int
	// SkipWall skips the timed passes (engine run still happens for the
	// simulated stats, but its wall time is not trusted anywhere).
	SkipWall bool
	// Log, when set, receives one progress line per cell.
	Log func(string)
}

func (o *RunOptions) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.DecisionOps == 0 {
		o.DecisionOps = 300
	}
}

// sloLadder cycles streams through the three tenant tiers used across
// the repo's workloads.
var sloLadder = []struct {
	slo    float64
	class  string
	weight int
}{
	{33.3, "gold", 4},
	{50, "silver", 2},
	{100, "besteffort", 1},
}

func cellFaults(c Cell, seed int64) *fault.Config {
	if !c.Faults {
		return nil
	}
	return &fault.Config{Seed: seed + 5, SpikeRate: 0.05, ExtractFailRate: 0.08}
}

func cellVideo(c Cell, seed int64, i int) *vid.Video {
	return vid.Generate(fmt.Sprintf("perf-%s-%d", c.Scale, i),
		seed*101+int64(i), vid.GenConfig{Frames: c.Frames})
}

// Run sweeps the cells and assembles a Report. The models bundle is
// shared read-only; every engine/loop works on its own clone.
func Run(models *sched.Models, cells []Cell, opts RunOptions) (*Report, error) {
	opts.defaults()
	rep := &Report{
		Schema: Schema,
		Seed:   opts.Seed,
		Env: Env{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
	}
	if !opts.SkipWall {
		rep.CalibMS = Calibrate()
	}
	for _, c := range cells {
		cr, err := runCell(models, c, opts)
		if err != nil {
			return nil, fmt.Errorf("perf: cell %s: %w", c.Name, err)
		}
		rep.Cells = append(rep.Cells, cr)
		if opts.Log != nil {
			opts.Log(fmt.Sprintf(
				"%-28s gofs=%-5d attain=%.2f allocs/dec=%d B/dec=%d gof_mean=%.3fms",
				c.Name, cr.Sim.GoFs, cr.Sim.AttainRate,
				cr.Mem.DecisionAllocs, cr.Mem.DecisionBytes, cr.Wall.GoFMeanMS))
		}
	}
	return rep, nil
}

func runCell(models *sched.Models, c Cell, opts RunOptions) (CellResult, error) {
	var cr CellResult
	cr.Cell = c

	sim, engineMS, err := runEngine(models, c, opts.Seed)
	if err != nil {
		return cr, err
	}
	cr.Sim = sim

	gofAllocs, gofBytes, gofTimes, err := measureGoFLoop(models, c, opts.Seed, !opts.SkipWall)
	if err != nil {
		return cr, err
	}
	decAllocs, decBytes, err := measureDecisionLoop(models, c, opts.Seed, opts.DecisionOps)
	if err != nil {
		return cr, err
	}
	cr.Mem = MemStats{
		DecisionAllocs: decAllocs, DecisionBytes: decBytes,
		GoFAllocs: gofAllocs, GoFBytes: gofBytes,
	}
	if !opts.SkipWall {
		cr.Wall = wallStats(engineMS, gofTimes, sim.GoFs)
	}
	return cr, nil
}

func wallStats(engineMS float64, gofTimes []float64, gofs int) WallStats {
	w := WallStats{EngineMS: engineMS}
	if len(gofTimes) > 0 {
		sort.Float64s(gofTimes)
		sum := 0.0
		for _, t := range gofTimes {
			sum += t
		}
		w.GoFMeanMS = sum / float64(len(gofTimes))
		w.GoFP50MS = quantile(gofTimes, 0.50)
		w.GoFP99MS = quantile(gofTimes, 0.99)
	}
	if engineMS > 0 {
		w.GoFsPerSec = float64(gofs) / (engineMS / 1000)
	}
	return w
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// runEngine drives the cell's full engine — serve for one board, fleet
// for several — and reports simulated-domain stats plus the run's wall
// time. All simulated numbers are a pure function of the seed.
func runEngine(models *sched.Models, c Cell, seed int64) (SimStats, float64, error) {
	observer := obs.New()
	faults := cellFaults(c, seed)
	weights := map[string]int{}
	for _, t := range sloLadder {
		weights[t.class] = t.weight
	}
	var adaptCfg *adapt.Config
	if c.Adapt {
		adaptCfg = &adapt.Config{}
	}

	start := time.Now()
	var (
		sim SimStats
		dec []obs.Decision
	)
	if c.Boards <= 1 {
		o := serve.Options{Models: models, Observer: observer, Faults: faults,
			RiskQuantile: c.RiskQ}
		if c.Admission == "wfq" {
			o.Admission = serve.AdmissionWFQ
			o.ClassWeights = weights
			o.Preempt = true
		}
		if c.Adapt {
			o.Adapt = adaptCfg
		}
		srv, err := serve.New(o)
		if err != nil {
			return sim, 0, err
		}
		for i := 0; i < c.Streams; i++ {
			t := sloLadder[i%len(sloLadder)]
			if _, err := srv.Submit(serve.StreamConfig{
				Video:          cellVideo(c, seed, i),
				SLO:            t.slo,
				Class:          t.class,
				Seed:           seed + int64(i),
				BaseContention: c.Contention,
			}); err != nil {
				return sim, 0, err
			}
		}
		res := srv.Drain()
		dec = res.Decisions()
		sim = SimStats{
			Streams:    len(res.Streams),
			Frames:     res.TotalFrames,
			Rounds:     res.Rounds,
			AttainRate: res.AttainRate,
		}
	} else {
		boards := make([]fleet.BoardConfig, c.Boards)
		for b := range boards {
			boards[b] = fleet.BoardConfig{
				Name:   fmt.Sprintf("b%d", b),
				Faults: faults,
			}
		}
		o := fleet.Options{Models: models, Boards: boards, Observer: observer,
			RiskQuantile: c.RiskQ}
		if c.Admission == "wfq" {
			o.Admission = serve.AdmissionWFQ
			o.ClassWeights = weights
			o.Preempt = true
		}
		if c.Adapt {
			o.Adapt = adaptCfg
		}
		fl, err := fleet.New(o)
		if err != nil {
			return sim, 0, err
		}
		for i := 0; i < c.Streams; i++ {
			t := sloLadder[i%len(sloLadder)]
			if _, err := fl.Submit(serve.StreamConfig{
				Video:          cellVideo(c, seed, i),
				SLO:            t.slo,
				Class:          t.class,
				Seed:           seed + int64(i),
				BaseContention: c.Contention,
			}); err != nil {
				return sim, 0, err
			}
		}
		res := fl.Run()
		dec = res.Decisions()
		rounds, frames := 0, 0
		for _, b := range res.Boards {
			rounds += b.Rounds
		}
		for _, s := range res.Streams {
			frames += s.Frames
		}
		sim = SimStats{
			Streams:    len(res.Streams),
			Frames:     frames,
			Rounds:     rounds,
			AttainRate: res.AttainRate,
		}
	}
	engineMS := float64(time.Since(start).Nanoseconds()) / 1e6

	sim.GoFs = len(dec)
	if len(dec) > 0 {
		lat := make([]float64, 0, len(dec))
		sum := 0.0
		for _, d := range dec {
			lat = append(lat, d.RealizedMS)
			sum += d.RealizedMS
		}
		sort.Float64s(lat)
		sim.MeanGoFMS = round6(sum / float64(len(lat)))
		sim.P99GoFMS = round6(quantile(lat, 0.99))
	}
	sim.AttainRate = round6(sim.AttainRate)
	return sim, engineMS, nil
}

// round6 trims float noise so JSON reports stay stable to diff. The
// inputs are already deterministic; this only shortens the rendering.
func round6(x float64) float64 { return math.Round(x*1e6) / 1e6 }

// buildLoop constructs the single-stream pipeline used by both hot-path
// measurement loops: a fresh model clone, a fixed-contention clock, and
// the cell's fault/adaptation configuration.
func buildLoop(models *sched.Models, c Cell, seed int64) (*core.Pipeline, *mbek.Kernel, *simlat.Clock, *vid.Video, error) {
	var adaptCfg *adapt.Config
	if c.Adapt {
		adaptCfg = &adapt.Config{Label: "perf"}
	}
	clone, err := models.Clone()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	p, err := core.NewPipeline(core.Options{
		Models:       clone,
		SLO:          50,
		Policy:       core.PolicyFull,
		Adapt:        adaptCfg,
		RiskQuantile: c.RiskQ,
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	clock := simlat.NewClock(simlat.TX2, seed)
	clock.SetContention(c.Contention)
	k := mbek.NewKernel(p.Det, clock)
	v := cellVideo(c, seed, 0)
	if c.Faults {
		inj := fault.NewInjector(*cellFaults(c, seed), seed)
		p.Sched.SetInjector(inj)
	}
	return p, k, clock, v, nil
}

// newStepper builds the single-stream harness loop for a cell.
func newStepper(models *sched.Models, c Cell, seed int64) (*harness.Stepper, error) {
	p, k, clock, v, err := buildLoop(models, c, seed)
	if err != nil {
		return nil, err
	}
	res := &harness.Result{}
	st := harness.NewStepper(k, p.Sched, []*vid.Video{v}, clock,
		contend.Fixed{G: c.Contention}, res)
	if c.Faults {
		st.SetInjector(fault.NewInjector(*cellFaults(c, seed), seed))
	}
	return st, nil
}

// measureGoFLoop steps one full stream through the harness twice: a
// timed pass (per-Step wall times) and an allocation pass (Mallocs /
// TotalAlloc deltas per Step, single goroutine, GC quiesced,
// construction excluded from the measured window).
func measureGoFLoop(models *sched.Models, c Cell, seed int64, timed bool) (allocs, bytes uint64, times []float64, err error) {
	if timed {
		// Best-of-5 by median: the per-GoF work here is tens of
		// microseconds, where any single pass is at the mercy of
		// scheduler and frequency noise. The repetition with the lowest
		// median step time is the noise-floor estimate — stable enough
		// run to run for a ±15% wall gate to compare (means are not:
		// one GC pause in a 40-step pass moves them 20%). Every
		// repetition replays the identical fixed-seed step sequence, so
		// reps differ only in timing.
		const wallReps = 5
		reps := make([][]float64, wallReps)
		for rep := range reps {
			st, err := newStepper(models, c, seed)
			if err != nil {
				return 0, 0, nil, err
			}
			for {
				t0 := time.Now()
				more := st.Step()
				if !more {
					break
				}
				reps[rep] = append(reps[rep], float64(time.Since(t0).Nanoseconds())/1e6)
			}
		}
		times = lowestMedianRep(reps)
	}

	st, err := newStepper(models, c, seed)
	if err != nil {
		return 0, 0, nil, err
	}
	allocs, bytes = measureAllocs(nil, func() bool { return st.Step() }, nil)
	return allocs, bytes, times, nil
}

// lowestMedianRep returns the repetition whose median step time is the
// lowest (the first such on ties), or nil when there are none.
func lowestMedianRep(reps [][]float64) []float64 {
	var best []float64
	bestMed := math.Inf(1)
	for _, rep := range reps {
		sorted := append([]float64(nil), rep...)
		sort.Float64s(sorted)
		if med := quantile(sorted, 0.5); med < bestMed {
			bestMed, best = med, rep
		}
	}
	return best
}

// measureDecisionLoop isolates the scheduler decision path — the per-GoF
// Decide on a warm pipeline, no kernel execution — and returns exact
// allocs/op + bytes/op. This is the hard-gated number. The SetBranch
// that follows each Decide runs outside the measured window: the
// kernel's switch log and branch-usage map grow with the run, and that
// growth is kernel memory, not the decision path's.
func measureDecisionLoop(models *sched.Models, c Cell, seed int64, ops int) (allocs, bytes uint64, err error) {
	p, k, clock, v, err := buildLoop(models, c, seed)
	if err != nil {
		return 0, 0, err
	}
	k.Start(v)
	i := 0
	var b mbek.Branch
	decide := func() { b = p.Sched.Decide(k, clock, v, v.Frames[i%len(v.Frames)]) }
	apply := func() {
		k.SetBranch(b, i)
		i++
	}
	const warmup = 50
	a, by := measureAllocs(
		func() {
			for j := 0; j < warmup; j++ {
				decide()
				apply()
			}
		},
		func() bool {
			if i >= warmup+ops {
				return false
			}
			decide()
			return true
		},
		apply,
	)
	return a, by, nil
}

// measureAllocs pins the scheduler to one processor, runs warmup (lazy
// initialization, cache fills) outside the measured window, quiesces
// the GC, then drives op until it returns false, calling between (when
// non-nil) after each op that returned true. It returns the Mallocs and
// TotalAlloc deltas over the op calls, the last one included, per op
// that returned true, rounded up: one allocation in a long run reads 1,
// not 0. Determinism: on a single goroutine with no timers the runtime
// performs no background heap allocation, so the same seed yields the
// same counts on every machine.
func measureAllocs(warmup func(), op func() bool, between func()) (allocsPerOp, bytesPerOp uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if warmup != nil {
		warmup()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	var allocs, bytes, n uint64
	for {
		runtime.ReadMemStats(&m0)
		more := op()
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
		if !more {
			break
		}
		n++
		if between != nil {
			between()
		}
	}
	if n == 0 {
		return 0, 0
	}
	return (allocs + n - 1) / n, (bytes + n - 1) / n
}
