package cli

import (
	"errors"
	"fmt"
	"io"
	"log"

	"litereconfig/internal/adapt"
	"litereconfig/internal/core"
	"litereconfig/internal/obs"
	"litereconfig/internal/serve"
	"litereconfig/internal/vid"
)

// serveCmd runs the multi-stream serving engine: concurrent streams on
// one simulated board, each stream's GPU contention coupled to the
// other streams' measured occupancy (DESIGN.md §7), with optional
// seeded faults (§9), online adaptation (§11) and risk-aware admission
// (§17). It prints per-stream rows and the per-class SLO attainment.
//
//	lr serve -streams 8 -slos 33.3,50 -policies full,mincost -frames 120
func serveCmd(args []string, stdout, stderr io.Writer) error {
	fs, lg := newCommand("serve", stderr)
	streams := fs.Int("streams", 8, "number of concurrent streams")
	var mix streamMix
	mix.register(fs, "33.3,50")
	deviceName := deviceFlag(fs)
	var board boardShape
	board.register(fs, "admission threshold on aggregate GPU occupancy (default 2 x gpu_slots)")
	queueLimit := fs.Int("queue_limit", serve.DefaultQueueLimit, "admission queue capacity (backpressure beyond it)")
	frames := fs.Int("frames", 120, "frames per stream video")
	seed := seedFlag(fs, "base seed for stream videos")
	faults := faultsFlag(fs, "fault-injection spec, e.g. spike=0.05,extract=0.1,burst=0.02,stall=0.01,panic=0.005 (empty = no faults)")
	retryLimit := fs.Int("retry_limit", serve.DefaultRetryLimit, "recovered worker panics a stream may accumulate before quarantine")
	stallRounds := fs.Int("stall_rounds", serve.DefaultStallRounds, "consecutive zero-progress rounds before a stream is quarantined")
	modelFile := modelsFlag(fs)
	adaptOn := fs.Bool("adapt", false, "enable online model adaptation (per-stream refit with champion-challenger rollout into a board registry)")
	registryOut := fs.String("registry_out", "", "save the board's adaptation registry (gob) after the drain, for lr replay -registry (needs -adapt)")
	var out outputs
	out.register(fs, false, true)
	riskQ := fs.Float64("risk_q", 0, "probabilistic SLO admission quantile in (0,1), e.g. 0.95: admit branches on the q-quantile latency and print the risk-calibration report after the drain (0 = legacy mean admission)")
	if err := parse(fs, args); err != nil {
		return err
	}

	dev, err := device(*deviceName)
	if err != nil {
		return err
	}
	sloList, policyList, err := mix.parse()
	if err != nil {
		return err
	}
	faultCfg, err := parseFaults(*faults, *seed)
	if err != nil {
		return err
	}
	if *registryOut != "" && !*adaptOn {
		return errors.New("-registry_out needs -adapt")
	}
	models, err := loadModels(*modelFile, lg)
	if err != nil {
		return err
	}

	var observer *obs.Observer
	if out.observed() || *riskQ > 0 {
		observer = obs.New() // risk mode needs the trace for the calibration report
	}
	var adaptCfg *adapt.Config
	if *adaptOn {
		adaptCfg = &adapt.Config{}
	}
	srv, err := serve.New(serve.Options{
		Models:       models,
		Device:       dev,
		GPUSlots:     board.gpuSlots,
		MaxOccupancy: board.maxOcc,
		Coupling:     board.coupling,
		RoundMS:      board.roundMS,
		QueueLimit:   *queueLimit,
		Faults:       faultCfg,
		RetryLimit:   *retryLimit,
		StallRounds:  *stallRounds,
		Observer:     observer,
		Adapt:        adaptCfg,
		ReplayTrace:  out.replayTrace,
		RiskQuantile: *riskQ,
	})
	if err != nil {
		return err
	}

	lg.Printf("serving %d streams on %s: %d GPU slots, coupling %.2f, round %.0f ms",
		*streams, dev.Name, srv.Options().GPUSlots, srv.Options().Coupling,
		srv.Options().RoundMS)
	if faultCfg != nil {
		lg.Printf("fault injection on: %s (seed %d)", *faults, *seed)
	}
	submitted := submitStreams(lg, *streams, *frames, *seed, "live", sloList, policyList,
		func(c serve.StreamConfig) error { _, err := srv.Submit(c); return err })
	lg.Printf("%d/%d streams accepted, draining...", submitted, *streams)

	res := srv.Drain()
	printStreams(stdout, res.Streams, res.Summary())

	if *riskQ > 0 {
		if cal := obs.RiskCalibration(res.Decisions()); cal != nil {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, cal.Report())
		}
	}

	reg := srv.AdaptRegistry()
	if reg != nil && reg.Len() > 0 {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "model registry:")
		for _, v := range reg.Versions() {
			fmt.Fprintf(stdout, "  %-10s %-8s parent=%-10s err %.2f->%.2f ms (%d samples)\n",
				v.Label, v.Source, v.Parent, v.ChampErrMS, v.ChalErrMS, v.Samples)
		}
	}
	if *registryOut != "" {
		if err := reg.SaveFile(*registryOut); err != nil {
			return fmt.Errorf("save registry: %w", err)
		}
		lg.Printf("wrote registry %s (%d versions)", *registryOut, reg.Len())
	}

	if err := writeTrace(lg, out.trace, "decisions", len(res.Decisions()), res.WriteTrace); err != nil {
		return err
	}
	if out.metrics {
		printMetrics(stdout, res.Metrics().Text())
	}
	return nil
}

// submitStreams generates n stream videos named <prefix>_NNN and
// submits them with the SLOs and policies cycled across streams. It
// logs each rejection and returns the number accepted.
func submitStreams(lg *log.Logger, n, frames int, seed int64, prefix string,
	slos []float64, policies []core.Policy, submit func(serve.StreamConfig) error) int {
	accepted := 0
	for i := 0; i < n; i++ {
		v := vid.Generate(fmt.Sprintf("%s_%03d", prefix, i), seed+300000+int64(i),
			vid.GenConfig{Frames: frames})
		if err := submit(serve.StreamConfig{
			Name:   fmt.Sprintf("stream-%d", i),
			Video:  v,
			SLO:    slos[i%len(slos)],
			Policy: policies[i%len(policies)],
			Seed:   seed + int64(i),
		}); err != nil {
			lg.Printf("stream %d: %v", i, err)
			continue
		}
		accepted++
	}
	return accepted
}

// printStreams prints one row per stream, a blank line and the summary.
func printStreams(w io.Writer, streams []serve.StreamResult, summary string) {
	for i := range streams {
		fmt.Fprintln(w, streams[i].Summary())
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, summary)
}
