// Command lrserve runs the multi-stream serving engine: N concurrent
// video streams multiplexed over one simulated board, where each
// stream's GPU contention is the measured occupancy of the other
// streams. It prints per-stream rows and the per-class SLO attainment.
//
// Usage:
//
//	lrserve --streams 8 --slos 33.3,50 --mobile_device tx2 \
//	        --gpu_slots 2 --coupling 0.5 --frames 120
//
// The --slos list is cycled across streams; --policies (cycled the same
// way) mixes scheduler variants, e.g. --policies full,mincost to watch
// the Full policy adapt to cross-stream contention while MinCost does
// not.
//
// Observability: -trace <file> writes every scheduler decision (one JSON
// object per line, byte-identical across runs for fixed seeds), and
// -metrics dumps the engine's metrics registry in Prometheus exposition
// format after the drain.
//
// Chaos: -faults injects a deterministic seeded fault schedule
// (latency spikes, feature-extraction failures, contention bursts,
// stream stalls, worker panics) and engages graceful degradation —
// e.g. -faults spike=0.05,extract=0.1,panic=0.005. Same seed, same
// faults, same trace.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"litereconfig/internal/adapt"
	"litereconfig/internal/core"
	"litereconfig/internal/fault"
	"litereconfig/internal/fixture"
	"litereconfig/internal/obs"
	"litereconfig/internal/sched"
	"litereconfig/internal/serve"
	"litereconfig/internal/simlat"
	"litereconfig/internal/vid"
)

// parseFloats splits a comma-separated float list.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lrserve: ")

	streams := flag.Int("streams", 8, "number of concurrent streams")
	slos := flag.String("slos", "33.3,50", "comma-separated per-frame SLOs in ms, cycled across streams")
	policies := flag.String("policies", "full", "comma-separated scheduler policies, cycled across streams (full, mincost, maxcontent-resnet, maxcontent-mobilenet)")
	device := flag.String("mobile_device", "tx2", "device: tx2 or xv")
	gpuSlots := flag.Int("gpu_slots", 2, "worker pool size / GPU slot count")
	maxOcc := flag.Float64("max_occupancy", 0, "admission threshold on aggregate GPU occupancy (default 2 x gpu_slots)")
	coupling := flag.Float64("coupling", serve.DefaultCoupling, "cross-stream occupancy-to-contention coupling")
	roundMS := flag.Float64("round_ms", serve.DefaultRoundMS, "simulated board round length in ms")
	queueLimit := flag.Int("queue_limit", serve.DefaultQueueLimit, "admission queue capacity (backpressure beyond it)")
	frames := flag.Int("frames", 120, "frames per stream video")
	seed := flag.Int64("seed", 7, "base seed for stream videos")
	faults := flag.String("faults", "", "fault-injection spec, e.g. spike=0.05,extract=0.1,burst=0.02,stall=0.01,panic=0.005 (empty = no faults)")
	retryLimit := flag.Int("retry_limit", serve.DefaultRetryLimit, "recovered worker panics a stream may accumulate before quarantine")
	stallRounds := flag.Int("stall_rounds", serve.DefaultStallRounds, "consecutive zero-progress rounds before a stream is quarantined")
	modelFile := flag.String("models", "", "trained model file from lrtrain (trains a small model set if empty)")
	adaptOn := flag.Bool("adapt", false, "enable online model adaptation (per-stream refit with champion-challenger rollout into a board registry)")
	registryOut := flag.String("registry_out", "", "save the board's adaptation registry (gob) after the drain, for lrreplay -models adapted (needs -adapt)")
	traceFile := flag.String("trace", "", "write the scheduler decision trace (JSON Lines) to this file; a .gz suffix gzip-compresses it")
	replayTrace := flag.Bool("replay_trace", false, "enrich the decision trace with the scheduler-input replay payload (for lrreplay); traces get large")
	riskQ := flag.Float64("risk_q", 0, "probabilistic SLO admission quantile in (0,1), e.g. 0.95: admit branches on the q-quantile latency and print the risk-calibration report after the drain (0 = legacy mean admission)")
	metrics := flag.Bool("metrics", false, "print the metrics registry (Prometheus exposition format) after the drain")
	flag.Parse()

	dev, ok := simlat.DeviceByName(*device)
	if !ok {
		log.Fatalf("unknown device %q (want tx2 or xv)", *device)
	}
	sloList, err := parseFloats(*slos)
	if err != nil {
		log.Fatalf("bad --slos: %v", err)
	}
	var policyList []core.Policy
	for _, tok := range strings.Split(*policies, ",") {
		p, err := serve.ParsePolicy(tok)
		if err != nil {
			log.Fatal(err)
		}
		policyList = append(policyList, p)
	}
	var faultCfg *fault.Config
	if *faults != "" {
		faultCfg, err = fault.ParseSpec(*faults)
		if err != nil {
			log.Fatalf("bad --faults: %v", err)
		}
		if faultCfg.Seed == 0 {
			faultCfg.Seed = *seed
		}
	}

	var models *sched.Models
	if *modelFile != "" {
		models, err = sched.LoadFile(*modelFile)
		if err != nil {
			log.Fatalf("load models: %v", err)
		}
		log.Printf("loaded %s (%d branches)", *modelFile, len(models.Branches))
	} else {
		log.Printf("no --models given; training a compact model set (use lrtrain for the full pipeline)")
		set, err := fixture.Small()
		if err != nil {
			log.Fatalf("training failed: %v", err)
		}
		models = set.Models
	}

	var observer *obs.Observer
	if *traceFile != "" || *metrics || *riskQ > 0 {
		observer = obs.New() // risk mode needs the trace for the calibration report
	}

	var adaptCfg *adapt.Config
	if *adaptOn {
		adaptCfg = &adapt.Config{}
	}

	srv, err := serve.New(serve.Options{
		Models:       models,
		Device:       dev,
		GPUSlots:     *gpuSlots,
		MaxOccupancy: *maxOcc,
		Coupling:     *coupling,
		RoundMS:      *roundMS,
		QueueLimit:   *queueLimit,
		Faults:       faultCfg,
		RetryLimit:   *retryLimit,
		StallRounds:  *stallRounds,
		Observer:     observer,
		Adapt:        adaptCfg,
		ReplayTrace:  *replayTrace,
		RiskQuantile: *riskQ,
	})
	if err != nil {
		log.Fatal(err)
	}

	log.Printf("serving %d streams on %s: %d GPU slots, coupling %.2f, round %.0f ms",
		*streams, dev.Name, srv.Options().GPUSlots, srv.Options().Coupling,
		srv.Options().RoundMS)
	if faultCfg != nil {
		log.Printf("fault injection on: %s (seed %d)", *faults, *seed)
	}
	submitted := 0
	for i := 0; i < *streams; i++ {
		slo := sloList[i%len(sloList)]
		policy := policyList[i%len(policyList)]
		v := vid.Generate(fmt.Sprintf("live_%03d", i), *seed+300000+int64(i),
			vid.GenConfig{Frames: *frames})
		_, err := srv.Submit(serve.StreamConfig{
			Name:   fmt.Sprintf("stream-%d", i),
			Video:  v,
			SLO:    slo,
			Policy: policy,
			Seed:   *seed + int64(i),
		})
		if err != nil {
			log.Printf("stream %d: %v", i, err)
			continue
		}
		submitted++
	}
	log.Printf("%d/%d streams accepted, draining...", submitted, *streams)

	res := srv.Drain()
	for i := range res.Streams {
		fmt.Println(res.Streams[i].Summary())
	}
	fmt.Println()
	fmt.Print(res.Summary())

	if *riskQ > 0 {
		if cal := obs.RiskCalibration(res.Decisions()); cal != nil {
			fmt.Println()
			fmt.Print(cal.Report())
		}
	}

	if reg := srv.AdaptRegistry(); reg != nil && reg.Len() > 0 {
		fmt.Println()
		fmt.Println("model registry:")
		for _, v := range reg.Versions() {
			fmt.Printf("  %-10s %-8s parent=%-10s err %.2f->%.2f ms (%d samples)\n",
				v.Label, v.Source, v.Parent, v.ChampErrMS, v.ChalErrMS, v.Samples)
		}
	}

	if *registryOut != "" {
		reg := srv.AdaptRegistry()
		if reg == nil {
			log.Fatal("-registry_out needs -adapt")
		}
		if err := reg.SaveFile(*registryOut); err != nil {
			log.Fatalf("save registry: %v", err)
		}
		log.Printf("wrote registry %s (%d versions)", *registryOut, reg.Len())
	}

	if *traceFile != "" {
		f, err := obs.CreateTrace(*traceFile)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		if err := res.WriteTrace(f); err != nil {
			log.Fatalf("trace: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("trace: %v", err)
		}
		log.Printf("wrote %d decisions to %s", len(res.Decisions()), *traceFile)
	}
	if *metrics {
		fmt.Println()
		fmt.Print(res.Metrics().Text())
	}
}
