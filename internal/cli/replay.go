package cli

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"litereconfig/internal/adapt"
	"litereconfig/internal/obs"
	"litereconfig/internal/replay"
	"litereconfig/internal/sched"
	"litereconfig/internal/serve"
	"litereconfig/internal/vid"
)

// replayCmd re-runs the scheduler over decision traces recorded with
// -replay_trace (lr serve or lr fleet): verbatim, where -identity
// asserts that every decision replays bit-exactly, or under what-if
// knobs (-slo, -policy, -degrade, -risk_q, -registry and the
// -slo_sweep/-risk_sweep ladders), estimating their effect on SLO
// attainment and accuracy without re-running the simulation
// (DESIGN.md §16). -bench records, replays and sweeps a seeded scenario
// in-process and writes BENCH_replay.json.
//
//	lr serve -streams 8 -frames 240 -replay_trace -trace run.jsonl.gz
//	lr replay -identity run.jsonl.gz
//	lr replay -slo_sweep 15,33.3,50,100 -compare run.jsonl.gz
func replayCmd(args []string, stdout, stderr io.Writer) error {
	fs, lg := newCommand("replay", stderr)
	modelFile := modelsFlag(fs)
	registry := fs.String("registry", "", "adaptation registry gob (lr train -registry_out / lr serve -registry_out): re-predict from its adapted bundle instead of the recorded tables")
	version := fs.String("version", "", "registry version label to replay with (default: the newest committed version)")
	slo := fs.Float64("slo", 0, "override every decision's SLO in ms (0 = as recorded)")
	sloSweep := fs.String("slo_sweep", "", "comma-separated SLO list in ms; replays the corpus once per point and prints the sweep")
	riskSweep := fs.String("risk_sweep", "", "comma-separated admission-quantile list, e.g. 0,0.9,0.95,0.99; replays the corpus once per quantile (0 = mean admission) and prints the sweep")
	riskQ := fs.String("risk_q", "", "override the admission quantile for every decision: a value in [0,1), where 0 forces mean admission even over risk-recorded corpora (empty = as recorded)")
	safety := fs.Float64("safety", 0, "override the planning safety factor (0 = as recorded)")
	policy := fs.String("policy", "", "override the scheduler variant for every decision: full, mincost, maxcontent-resnet, maxcontent-mobilenet, force-<feature> (empty = as recorded)")
	degrade := fs.String("degrade", "recorded", "graceful-degradation treatment: recorded, off or sim")
	identity := fs.Bool("identity", false, "assert the fidelity invariant: fail unless every decision replays bit-exactly")
	compare := fs.Bool("compare", false, "print the recorded baseline next to each replayed outcome, with deltas")
	show := fs.Int("show", 5, "divergent decisions to list when the identity check fails")
	bench := fs.String("bench", "", "run the self-contained replay benchmark and write its JSON report to this file (e.g. BENCH_replay.json)")
	benchStreams := fs.Int("bench_streams", 8, "streams in the benchmark scenario")
	benchFrames := fs.Int("bench_frames", 240, "frames per stream in the benchmark scenario")
	seed := seedFlag(fs, "base seed for the benchmark scenario")
	if err := parse(fs, args); err != nil {
		return err
	}

	degradeKnob, err := replay.ParseDegrade(*degrade)
	if err != nil {
		return err
	}
	var sloPoints, riskPoints []float64
	if *sloSweep != "" {
		if sloPoints, err = parseFloats(*sloSweep); err != nil {
			return fmt.Errorf("bad -slo_sweep: %w", err)
		}
	}
	if *riskSweep != "" {
		if riskPoints, err = parseFloats(*riskSweep); err != nil {
			return fmt.Errorf("bad -risk_sweep: %w", err)
		}
	}
	models, err := replayModels(lg, *modelFile, *registry, *version)
	if err != nil {
		return err
	}
	base := replay.Config{
		Models:              models,
		SLOMS:               *slo,
		SafetyFactor:        *safety,
		Degrade:             degradeKnob,
		Policy:              *policy,
		UseModelPredictions: *registry != "",
	}
	if *riskQ != "" {
		v, err := strconv.ParseFloat(strings.TrimSpace(*riskQ), 64)
		if err != nil {
			return fmt.Errorf("bad -risk_q: %w", err)
		}
		base.RiskQuantile = &v
	}

	if *bench != "" {
		if sloPoints == nil {
			sloPoints = []float64{15, 33.3, 50, 100}
		}
		return runReplayBench(lg, *bench, base, sloPoints, *benchStreams, *benchFrames, *seed)
	}

	paths := fs.Args()
	if len(paths) == 0 {
		return errors.New("no traces given (usage: lr replay [flags] trace.jsonl[.gz] | trace-dir ...)")
	}
	corpus, err := replay.Load(paths...)
	if err != nil {
		return err
	}
	lg.Printf("corpus: %d decisions (%d frames) across %d files, %.1f s simulated; %d fleet events ride along",
		corpus.Decisions(), corpus.Frames(), len(corpus.Files), corpus.SimMS()/1e3, corpus.FleetEvents())

	switch {
	case sloPoints != nil:
		return sweep(stdout, corpus, base, "slo(ms)", "%8.1f", sloPoints, *compare, setSLO)
	case riskPoints != nil:
		return sweep(stdout, corpus, base, "risk_q", "%8.3f", riskPoints, *compare,
			func(c *replay.Config, p float64) { c.RiskQuantile = &p })
	}

	e, err := replay.New(base)
	if err != nil {
		return err
	}
	t0 := time.Now()
	res, err := e.Replay(corpus)
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	lg.Printf("replayed %d decisions in %v (%.0f GoFs/sec)",
		len(res.Redecisions), wall.Round(time.Microsecond), rate(res.Replayed.GoFs, wall))

	printOutcome(stdout, "replayed", res.Replayed)
	if *compare {
		printOutcome(stdout, "recorded", res.Recorded)
		fmt.Fprintf(stdout, "%-10s attain %+6.2f pp   acc %+6.2f pp   lat %+7.2f ms\n", "delta",
			100*(res.Replayed.AttainRate-res.Recorded.AttainRate),
			100*(res.Replayed.MeanAccuracy-res.Recorded.MeanAccuracy),
			res.Replayed.MeanMS-res.Recorded.MeanMS)
	}
	return checkFidelity(lg, res, *identity, *show)
}

// replayModels resolves the prediction source. Without a registry the
// replay uses the recorded tables and takes the branch space and
// benefit table from the -models bundle (or the compact fixture set,
// which must match the recording's bundle for identity). With one, it
// re-predicts from the registry version's adapted bundle.
func replayModels(lg *log.Logger, modelFile, registryPath, version string) (*sched.Models, error) {
	if registryPath == "" {
		return loadModels(modelFile, lg)
	}
	if modelFile != "" {
		return nil, errors.New("-models conflicts with -registry (the registry supplies the bundle)")
	}
	reg, err := adapt.LoadRegistryFile(registryPath)
	if err != nil {
		return nil, err
	}
	vs := reg.Versions()
	if len(vs) == 0 {
		return nil, fmt.Errorf("registry %s is empty", registryPath)
	}
	label := version
	if label == "" {
		label = vs[len(vs)-1].Label
	}
	m := reg.Get(label)
	if m == nil {
		var names []string
		for _, v := range vs {
			names = append(names, v.Label)
		}
		return nil, fmt.Errorf("registry %s has no version %q (have %s)",
			registryPath, label, strings.Join(names, ", "))
	}
	lg.Printf("replaying with adapted bundle %s from %s (%d versions)",
		label, registryPath, len(vs))
	return m, nil
}

// sweep replays the corpus once per point and prints the sweep table:
// the counterfactual attainment, accuracy and latency at each point,
// and with compare the recorded stream judged against the same
// configuration. An SLO sweep shows what each objective would have
// cost; a risk_q sweep is the offline way to pick an admission
// quantile before serving with it.
func sweep(w io.Writer, corpus *replay.Corpus, base replay.Config, label, pointFmt string,
	points []float64, compare bool, set func(*replay.Config, float64)) error {
	if compare {
		fmt.Fprintf(w, "%8s  %9s %8s %9s  |  %9s %8s  |  %9s %8s  %s\n",
			label, "attain", "acc", "lat(ms)", "rec-att", "rec-acc", "d-att", "d-acc", "diverged")
	} else {
		fmt.Fprintf(w, "%8s  %9s %8s %9s  %s\n", label, "attain", "acc", "lat(ms)", "diverged")
	}
	return replayEach(corpus, base, points, set, func(p float64, res *replay.Result, _ time.Duration) {
		rp, rc := res.Replayed, res.Recorded
		if compare {
			fmt.Fprintf(w, pointFmt+"  %8.2f%% %7.2f%% %9.2f  |  %8.2f%% %7.2f%%  |  %+8.2f %+8.2f  %d\n",
				p, 100*rp.AttainRate, 100*rp.MeanAccuracy, rp.MeanMS,
				100*rc.AttainRate, 100*rc.MeanAccuracy,
				100*(rp.AttainRate-rc.AttainRate), 100*(rp.MeanAccuracy-rc.MeanAccuracy),
				res.DivergedDecisions)
		} else {
			fmt.Fprintf(w, pointFmt+"  %8.2f%% %7.2f%% %9.2f  %d\n",
				p, 100*rp.AttainRate, 100*rp.MeanAccuracy, rp.MeanMS, res.DivergedDecisions)
		}
	})
}

// replayEach replays the corpus once per point, with set applying the
// point to a copy of base, and hands each result and the wall time of
// its replay pass to each.
func replayEach(corpus *replay.Corpus, base replay.Config, points []float64,
	set func(*replay.Config, float64), each func(float64, *replay.Result, time.Duration)) error {
	for _, p := range points {
		cfg := base
		set(&cfg, p)
		e, err := replay.New(cfg)
		if err != nil {
			return err
		}
		t := time.Now()
		res, err := e.Replay(corpus)
		if err != nil {
			return err
		}
		each(p, res, time.Since(t))
	}
	return nil
}

func setSLO(c *replay.Config, slo float64) { c.SLOMS = slo }

func printOutcome(w io.Writer, label string, o replay.Outcome) {
	fmt.Fprintf(w, "%-10s attain %6.2f%%   acc %6.2f%%   lat %7.2f ms   (%d decisions, %d GoFs, %d frames)\n",
		label, 100*o.AttainRate, 100*o.MeanAccuracy, o.MeanMS, o.Decisions, o.GoFs, o.Frames)
}

// checkFidelity logs the divergence stats and, under identity, turns
// any divergence into an error that lists the first show divergent
// decisions.
func checkFidelity(lg *log.Logger, res *replay.Result, identity bool, show int) error {
	total := len(res.Redecisions)
	if res.DivergedDecisions == 0 && res.MissingHeavy == 0 {
		lg.Printf("fidelity: %d/%d decisions reproduced exactly", total, total)
		return nil
	}
	msg := fmt.Sprintf("%d/%d decisions diverged, %d content-blind feature selections",
		res.DivergedDecisions, total, res.MissingHeavy)
	lg.Printf("fidelity: %s", msg)
	if !identity {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "identity check FAILED: %s", msg)
	for i, rd := range res.Divergences() {
		if i >= show {
			break
		}
		fmt.Fprintf(&b, "\n  %s stream %d gen %d seq %d: %v -> branch %s",
			rd.File, rd.Stream, rd.Gen, rd.Seq, rd.Diverged, rd.Branch)
	}
	return errors.New(b.String())
}

// benchReport is the BENCH_replay.json schema.
type benchReport struct {
	Scenario struct {
		Streams int       `json:"streams"`
		Frames  int       `json:"frames"`
		Seed    int64     `json:"seed"`
		SLOsMS  []float64 `json:"slos_ms"`
	} `json:"scenario"`
	RecordWallMS float64 `json:"record_wall_ms"`
	Decisions    int     `json:"decisions"`
	GoFs         int     `json:"gofs"`
	Frames       int     `json:"frames"`
	SimMS        float64 `json:"sim_ms"`
	Identity     struct {
		ReplayWallMS    float64 `json:"replay_wall_ms"`
		GoFsPerSec      float64 `json:"gofs_per_sec"`
		Diverged        int     `json:"diverged"`
		SpeedupVsRecord float64 `json:"speedup_vs_record"`
		SpeedupVsSim    float64 `json:"speedup_vs_sim"`
	} `json:"identity"`
	SLOSweep []benchPoint `json:"slo_sweep"`
}

type benchPoint struct {
	SLOMS          float64 `json:"slo_ms"`
	Attain         float64 `json:"attain"`
	RecordedAttain float64 `json:"recorded_attain"`
	AttainDelta    float64 `json:"attain_delta"`
	MeanAcc        float64 `json:"mean_accuracy"`
	RecordedAcc    float64 `json:"recorded_mean_accuracy"`
	AccDelta       float64 `json:"accuracy_delta"`
	MeanMS         float64 `json:"mean_ms"`
	Diverged       int     `json:"diverged"`
	ReplayWallMS   float64 `json:"replay_wall_ms"`
	GoFsPerSec     float64 `json:"gofs_per_sec"`
}

// runReplayBench records a seeded serve scenario in-process with the
// replay payload on, identity-replays it (any divergence fails it: a
// benchmark of an infidel replay is worthless), sweeps the SLO, and
// writes the JSON report.
func runReplayBench(lg *log.Logger, path string, base replay.Config, sweep []float64, streams, frames int, seed int64) error {
	if base.Policy != "" || base.SLOMS != 0 || base.SafetyFactor != 0 ||
		base.Degrade != replay.DegradeRecorded || base.UseModelPredictions ||
		base.RiskQuantile != nil {
		return errors.New("-bench runs the canonical identity + sweep configuration; drop the what-if flags")
	}
	slos := []float64{33.3, 50, 100}

	var rep benchReport
	rep.Scenario.Streams = streams
	rep.Scenario.Frames = frames
	rep.Scenario.Seed = seed
	rep.Scenario.SLOsMS = slos

	lg.Printf("recording: %d streams x %d frames, WFQ, replay payload on", streams, frames)
	observer := obs.New()
	t0 := time.Now()
	srv, err := serve.New(serve.Options{
		Models:       base.Models,
		Observer:     observer,
		ReplayTrace:  true,
		Admission:    serve.AdmissionWFQ,
		ClassWeights: map[string]int{"33.3ms": 4, "50ms": 2},
	})
	if err != nil {
		return err
	}
	for i := 0; i < streams; i++ {
		v := vid.Generate(fmt.Sprintf("bench_%03d", i), seed+900+int64(i),
			vid.GenConfig{Frames: frames})
		if _, err := srv.Submit(serve.StreamConfig{
			Video:          v,
			SLO:            slos[i%len(slos)],
			Seed:           seed + int64(i),
			BaseContention: 0.25,
		}); err != nil {
			return err
		}
	}
	srv.Drain()
	recordWall := time.Since(t0)
	corpus := replay.FromDecisions("bench", observer.Decisions())
	rep.RecordWallMS = ms(recordWall)
	rep.Decisions = corpus.Decisions()
	rep.Frames = corpus.Frames()
	rep.SimMS = corpus.SimMS()
	lg.Printf("recorded %d decisions in %v (%.1f s simulated)",
		rep.Decisions, recordWall.Round(time.Millisecond), rep.SimMS/1e3)

	e, err := replay.New(base)
	if err != nil {
		return err
	}
	// Warm once (page in the tables), then time the identity pass.
	if _, err := e.Replay(corpus); err != nil {
		return err
	}
	t1 := time.Now()
	res, err := e.Replay(corpus)
	if err != nil {
		return err
	}
	replayWall := time.Since(t1)
	if res.DivergedDecisions != 0 || res.MissingHeavy != 0 {
		return fmt.Errorf("identity replay diverged on %d decisions (%d content-blind); benchmark aborted",
			res.DivergedDecisions, res.MissingHeavy)
	}
	rep.GoFs = res.Replayed.GoFs
	rep.Identity.ReplayWallMS = ms(replayWall)
	rep.Identity.GoFsPerSec = rate(res.Replayed.GoFs, replayWall)
	rep.Identity.SpeedupVsRecord = ratio(recordWall, replayWall)
	rep.Identity.SpeedupVsSim = rep.SimMS / ms(replayWall)
	lg.Printf("identity: %d decisions bit-exact in %v (%.0f GoFs/sec, %.0fx vs recording, %.0fx vs simulated time)",
		rep.Decisions, replayWall.Round(time.Microsecond), rep.Identity.GoFsPerSec,
		rep.Identity.SpeedupVsRecord, rep.Identity.SpeedupVsSim)

	err = replayEach(corpus, base, sweep, setSLO, func(p float64, sres *replay.Result, w time.Duration) {
		rep.SLOSweep = append(rep.SLOSweep, benchPoint{
			SLOMS:          p,
			Attain:         sres.Replayed.AttainRate,
			RecordedAttain: sres.Recorded.AttainRate,
			AttainDelta:    sres.Replayed.AttainRate - sres.Recorded.AttainRate,
			MeanAcc:        sres.Replayed.MeanAccuracy,
			RecordedAcc:    sres.Recorded.MeanAccuracy,
			AccDelta:       sres.Replayed.MeanAccuracy - sres.Recorded.MeanAccuracy,
			MeanMS:         sres.Replayed.MeanMS,
			Diverged:       sres.DivergedDecisions,
			ReplayWallMS:   ms(w),
			GoFsPerSec:     rate(sres.Replayed.GoFs, w),
		})
		lg.Printf("sweep slo %6.1f ms: attain %6.2f%% (recorded %6.2f%%), acc %5.2f%%, %d re-decided",
			p, 100*sres.Replayed.AttainRate, 100*sres.Recorded.AttainRate,
			100*sres.Replayed.MeanAccuracy, sres.DivergedDecisions)
	})
	if err != nil {
		return err
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	lg.Printf("wrote %s", path)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func rate(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

func ratio(num, den time.Duration) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}
