package cli

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"litereconfig/internal/fleet"
	"litereconfig/internal/metric"
	"litereconfig/internal/obs"
	"litereconfig/internal/serve"
	"litereconfig/internal/workload"
)

// tierBench is one tier's row of the workload bench artifact.
type tierBench struct {
	Tier           string  `json:"tier"`
	SLOMS          float64 `json:"slo_ms"`
	Weight         int     `json:"weight"`
	Arrivals       int     `json:"arrivals"`
	Completed      int     `json:"completed"`
	Rejected       int     `json:"rejected"`
	Preemptions    int     `json:"preemptions"`
	PreemptRetired int     `json:"preempt_retired"`
	Attained       int     `json:"attained"`
	AttainRate     float64 `json:"attain_rate"`
	MeanMS         float64 `json:"mean_ms"`
	P99MS          float64 `json:"p99_ms"`
	ViolationRate  float64 `json:"violation_rate"`
}

// runBench is one policy's full-run results.
type runBench struct {
	Policy      string      `json:"policy"`
	Arrivals    int         `json:"arrivals"`
	Streams     int         `json:"streams"`
	Rejected    int         `json:"rejected"`
	Preemptions int         `json:"preemptions"`
	AttainRate  float64     `json:"attain_rate"`
	Barriers    int         `json:"barriers"`
	Tiers       []tierBench `json:"tiers"`
}

// benchOut is the BENCH_workload.json schema; the risk-admission bench
// (-bench_risk, BENCH_risk.json) reuses it with Bench "risk" and the
// risk_* / coverage fields populated.
type benchOut struct {
	Bench           string     `json:"bench"`
	Scenario        string     `json:"scenario"`
	Scale           string     `json:"scale"`
	Seed            int64      `json:"seed"`
	Device          string     `json:"device"`
	Boards          int        `json:"boards"`
	GPUSlots        int        `json:"gpu_slots"`
	Runs            []runBench `json:"runs"`
	GoldAttainDelta *float64   `json:"gold_attain_delta,omitempty"`
	// Risk bench extras: the admission quantile, the gold-tier deltas of
	// the risk run against the mean ablation (positive = risk admission
	// wins: fewer SLO misses, lower p99), and the empirical
	// prediction-interval coverage of the risk run per branch.
	RiskQ              float64            `json:"risk_q,omitempty"`
	GoldViolationDelta *float64           `json:"gold_violation_delta,omitempty"`
	GoldP99DeltaMS     *float64           `json:"gold_p99_delta_ms,omitempty"`
	OverallCoverage    *float64           `json:"overall_coverage,omitempty"`
	CoverageSamples    int                `json:"coverage_samples,omitempty"`
	Coverage           map[string]float64 `json:"coverage,omitempty"`
}

// loadCmd runs a named open-world workload scenario (diurnal,
// flashcrowd or heavytail) against the fleet: seeded open-loop arrivals
// with tenant SLO tiers, served under weighted-fair admission with tier
// preemption or, with -no_wfq, the FIFO ablation, reporting per-tier
// SLO attainment and tail latency (DESIGN.md §13). -compare runs both
// policies on the same arrival schedule; -bench_risk runs risk
// admission against the mean ablation (DESIGN.md §17).
//
//	lr load -scenario flashcrowd -scale small -compare -out BENCH_workload.json
//	lr load -scenario heavytail -bench_risk -coverage_band 0.90,0.99 -out BENCH_risk.json
func loadCmd(args []string, stdout, stderr io.Writer) error {
	fs, lg := newCommand("load", stderr)
	scenario := fs.String("scenario", "flashcrowd", "workload scenario: diurnal, flashcrowd or heavytail")
	scale := fs.String("scale", "small", "scenario scale: small, medium or large")
	seed := seedFlag(fs, "workload seed (arrival times, tiers, tenants, videos)")
	boards := fs.Int("boards", 1, "number of boards in the fleet")
	deviceName := deviceFlag(fs)
	var board boardShape
	board.register(fs, "per-board admission occupancy threshold (0 = engine default)")
	noWFQ := fs.Bool("no_wfq", false, "FIFO ablation: single submission-order queue, no preemption")
	compare := fs.Bool("compare", false, "run both WFQ+preemption and the FIFO ablation on the same schedule")
	riskQ := fs.Float64("risk_q", 0, "probabilistic SLO admission quantile in (0,1), e.g. 0.95 (0 = legacy mean admission)")
	benchRisk := fs.Bool("bench_risk", false, "run the scenario under risk admission (at -risk_q, default 0.95) and the mean ablation on the same schedule, and emit the risk bench artifact (tail SLO misses + calibration coverage)")
	covBand := fs.String("coverage_band", "", "with -bench_risk: fail (exit 1) unless overall p95 interval coverage lands in \"lo,hi\", e.g. 0.90,0.99 — the CI calibration smoke")
	outFile := fs.String("out", "", "write the bench artifact (JSON) to this file")
	modelFile := modelsFlag(fs)
	var out outputs
	out.register(fs, true, false)
	if err := parse(fs, args); err != nil {
		return err
	}

	dev, err := device(*deviceName)
	if err != nil {
		return err
	}
	wcfg, err := workload.Scenario(*scenario, *scale, *seed)
	if err != nil {
		return err
	}
	var lo, hi float64
	if *covBand != "" {
		if _, err := fmt.Sscanf(*covBand, "%f,%f", &lo, &hi); err != nil {
			return fmt.Errorf("bad -coverage_band %q (want lo,hi): %v", *covBand, err)
		}
	}
	models, err := loadModels(*modelFile, lg)
	if err != nil {
		return err
	}

	bench := benchOut{
		Bench:    "workload",
		Scenario: *scenario,
		Scale:    *scale,
		Seed:     *seed,
		Device:   dev.Name,
		Boards:   *boards,
		GPUSlots: board.gpuSlots,
	}
	// Every mode runs the scenario once or twice on the same arrival
	// schedule; the first run is the one reported, traced and dumped.
	type pass struct {
		wfq  bool
		risk float64
	}
	wfq := !*noWFQ
	passes := []pass{{wfq, *riskQ}}
	switch {
	case *benchRisk:
		q := *riskQ
		if q == 0 {
			q = 0.95
		}
		bench.Bench, bench.RiskQ = "risk", q
		passes = []pass{{wfq, q}, {wfq, 0}}
		lg.Printf("scenario %s/%s seed %d: risk admission q=%g vs mean ablation (%s)",
			*scenario, *scale, *seed, q, policyName(wfq))
	case *compare:
		passes = []pass{{true, *riskQ}, {false, *riskQ}}
		lg.Printf("scenario %s/%s seed %d: comparing wfq+preempt vs fifo", *scenario, *scale, *seed)
	default:
		lg.Printf("scenario %s/%s seed %d: policy %s", *scenario, *scale, *seed, policyName(wfq))
	}
	var mainRep *fleet.Report
	for i, p := range passes {
		arrivals, err := workload.Generate(wcfg)
		if err != nil {
			return err
		}
		var observer *obs.Observer
		// Risk runs always observe: the calibration report needs the
		// decision trace.
		if (i == 0 && out.observed()) || p.risk > 0 {
			observer = obs.New()
		}
		var boardCfgs []fleet.BoardConfig
		for b := 0; b < *boards; b++ {
			boardCfgs = append(boardCfgs, fleet.BoardConfig{
				Name:         fmt.Sprintf("b%d", b),
				Device:       dev,
				GPUSlots:     board.gpuSlots,
				MaxOccupancy: board.maxOcc,
				Coupling:     board.coupling,
				RoundMS:      board.roundMS,
			})
		}
		opts := fleet.Options{
			Models:       models,
			Boards:       boardCfgs,
			Source:       arrivals,
			TickMS:       board.roundMS,
			Observer:     observer,
			RiskQuantile: p.risk,
		}
		if p.wfq {
			opts.Admission = serve.AdmissionWFQ
			opts.ClassWeights = workload.Weights(wcfg.Tiers)
			opts.Preempt = true
		}
		fl, err := fleet.New(opts)
		if err != nil {
			return err
		}
		rep := fl.Run()
		run := summarizeRun(rep, wcfg.Tiers, p.wfq)
		if p.risk > 0 {
			run.Policy += fmt.Sprintf("+risk-q%g", p.risk)
		}
		if i == 0 {
			mainRep = rep
		}
		bench.Runs = append(bench.Runs, run)
	}

	switch {
	case *benchRisk:
		risk, mean := tierRow(bench.Runs[0], "gold"), tierRow(bench.Runs[1], "gold")
		dViol := mean.ViolationRate - risk.ViolationRate
		dP99 := mean.P99MS - risk.P99MS
		bench.GoldViolationDelta = &dViol
		bench.GoldP99DeltaMS = &dP99
		if cal := obs.RiskCalibration(mainRep.Decisions()); cal != nil {
			cov, n := cal.Overall()
			bench.OverallCoverage = &cov
			bench.CoverageSamples = n
			bench.Coverage = map[string]float64{}
			for _, k := range cal.Keys() {
				c, _ := cal.Coverage(k)
				bench.Coverage[k] = c
			}
			fmt.Fprint(stdout, cal.Report())
		}
		if *covBand != "" {
			if bench.OverallCoverage == nil {
				return errors.New("coverage band requested but the run produced no risk decisions")
			}
			if c := *bench.OverallCoverage; c < lo || c > hi {
				return fmt.Errorf("calibration smoke FAILED: overall p95 coverage %.3f outside [%.2f, %.2f] (%d decisions)",
					c, lo, hi, bench.CoverageSamples)
			}
			lg.Printf("calibration smoke ok: coverage %.3f in [%.2f, %.2f] (%d decisions)",
				*bench.OverallCoverage, lo, hi, bench.CoverageSamples)
		}
	case *compare:
		delta := tierRow(bench.Runs[0], "gold").AttainRate - tierRow(bench.Runs[1], "gold").AttainRate
		bench.GoldAttainDelta = &delta
	}

	fmt.Fprint(stdout, mainRep.Summary())
	for _, run := range bench.Runs {
		fmt.Fprintf(stdout, "policy %s: arrivals=%d streams=%d rejected=%d preemptions=%d attain=%.0f%%\n",
			run.Policy, run.Arrivals, run.Streams, run.Rejected,
			run.Preemptions, run.AttainRate*100)
		for _, t := range run.Tiers {
			fmt.Fprintf(stdout, "  tier %-10s slo=%5.1fms arrivals=%d completed=%d rejected=%d attained=%d (%.0f%%) p99=%.1fms preempt=%d\n",
				t.Tier, t.SLOMS, t.Arrivals, t.Completed, t.Rejected,
				t.Attained, t.AttainRate*100, t.P99MS, t.Preemptions)
		}
	}
	if bench.GoldAttainDelta != nil {
		fmt.Fprintf(stdout, "gold attain delta (wfq - fifo): %+.0f%%\n", *bench.GoldAttainDelta*100)
	}

	if *outFile != "" {
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outFile, append(data, '\n'), 0o644); err != nil {
			return err
		}
		lg.Printf("wrote %s", *outFile)
	}
	return writeFleetOutputs(lg, stdout, mainRep, &out)
}

func policyName(wfq bool) string {
	if wfq {
		return "wfq+preempt"
	}
	return "fifo"
}

// summarizeRun folds a fleet report into the bench row set: per-tier
// conservation counts from the report's Classes plus tail latency
// pooled over each tier's per-frame samples.
func summarizeRun(rep *fleet.Report, tiers []workload.Tier, wfq bool) runBench {
	run := runBench{
		Policy:      policyName(wfq),
		Arrivals:    rep.Arrivals,
		Streams:     len(rep.Streams),
		Rejected:    rep.Rejected,
		Preemptions: rep.Preemptions,
		AttainRate:  rep.AttainRate,
		Barriers:    rep.Barriers,
	}
	classes := map[string]serve.ClassStats{}
	for _, c := range rep.Classes {
		classes[c.Class] = c
	}
	for _, tier := range tiers {
		c := classes[tier.Name]
		tb := tierBench{
			Tier:           tier.Name,
			SLOMS:          tier.SLOMS,
			Weight:         tier.Weight,
			Arrivals:       rep.ArrivalsByClass[tier.Name],
			Completed:      c.Completed,
			Rejected:       c.Rejected,
			Preemptions:    c.Preemptions,
			PreemptRetired: c.PreemptRetired,
			Attained:       c.Attained,
			AttainRate:     c.AttainRate,
			ViolationRate:  c.ViolationRate,
		}
		var pool metric.LatencySeries
		for i := range rep.Streams {
			r := &rep.Streams[i]
			if r.Class != tier.Name || r.Raw == nil {
				continue
			}
			for _, ms := range r.Raw.Latency.Samples() {
				pool.Add(ms)
			}
		}
		tb.MeanMS = pool.Mean()
		tb.P99MS = pool.P99()
		run.Tiers = append(run.Tiers, tb)
	}
	return run
}

// tierRow reads one tier's bench row (zero value when absent).
func tierRow(run runBench, tier string) tierBench {
	for _, t := range run.Tiers {
		if t.Tier == tier {
			return t
		}
	}
	return tierBench{}
}
