// Command lrfleet runs the multi-board fleet dispatcher: N streams
// placed over M simulated boards by cost/content-aware placement, with
// live stream migration off boards that fail or become too contended.
//
// Usage:
//
//	lrfleet --boards 3 --streams 9 --slos 50,100 --mobile_device tx2 \
//	        --faults "b1:panic=0.3" --fleet_trace fleet.jsonl
//
// Placement scores every healthy board with capacity: the stream's
// predicted contention there (the board's occupancy folded through its
// coupling), the resulting per-branch latency, and the best feasible
// branch's predicted accuracy under the stream's SLO. The stream goes
// to the board whose best feasible branch maximizes accuracy; when no
// board has a feasible branch it is placed best-effort.
//
// Migration: a board whose recovered worker panics reach
// --board_panic_limit is quarantined and its streams are evacuated; a
// stream whose SLO stays infeasible on its board for --hysteresis
// barriers moves to a board with a feasible branch. Every hand-off is
// charged a migration cost (model clone plus detector warm-up).
// --no_migration disables both — the ablation baseline.
//
// Chaos: --faults takes a board-scoped spec — semicolon-separated
// entries, each a plain fault spec (fleet-wide default) or
// "<board>:<spec>" for one board, e.g. "spike=0.01;b1:panic=0.3".
// Board labels are validated against the fleet (b0..bN-1); an unknown
// label is a configuration error, not a silent no-op.
//
// Crash recovery: fail-stop board faults ("b1:crash=9" kills board b1
// permanently at round 9; "b2:blackout=5" makes b2 unresponsive for a
// few rounds) are recovered through fleet-held checkpoints: every
// --checkpoint_interval barriers each board serializes per-stream
// recovery state; a board silent past its --lease_barriers heartbeat
// lease gets --recovery_retries probes with exponential backoff (a
// blackout rides them out), then is declared dead in fleet virtual
// time, fenced, and its streams are restored onto surviving boards,
// replaying only the GoFs since their last checkpoint.
//
// Observability: -trace writes the merged scheduler decision trace,
// -fleet_trace the fleet placement/migration trace (both JSON Lines,
// byte-identical across runs for fixed seeds), and -metrics dumps the
// board-labeled metrics registry in Prometheus exposition format.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"strconv"
	"strings"

	"litereconfig/internal/adapt"
	"litereconfig/internal/core"
	"litereconfig/internal/fault"
	"litereconfig/internal/fixture"
	"litereconfig/internal/fleet"
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
	log.SetPrefix("lrfleet: ")

	boards := flag.Int("boards", 3, "number of boards in the fleet")
	streams := flag.Int("streams", 9, "number of streams to submit")
	slos := flag.String("slos", "50,100", "comma-separated per-frame SLOs in ms, cycled across streams")
	policies := flag.String("policies", "full", "comma-separated scheduler policies, cycled across streams (full, mincost, maxcontent-resnet, maxcontent-mobilenet)")
	device := flag.String("mobile_device", "tx2", "device for every board: tx2 or xv")
	gpuSlots := flag.Int("gpu_slots", 2, "per-board worker pool size / GPU slot count")
	coupling := flag.Float64("coupling", serve.DefaultCoupling, "per-board cross-stream occupancy-to-contention coupling")
	roundMS := flag.Float64("round_ms", serve.DefaultRoundMS, "simulated board round length in ms")
	frames := flag.Int("frames", 120, "frames per stream video")
	seed := flag.Int64("seed", 7, "base seed for stream videos")
	faults := flag.String("faults", "", `board-scoped fault spec: semicolon-separated entries, each "<spec>" (fleet-wide) or "<board>:<spec>", e.g. "spike=0.01;b1:panic=0.3"`)
	panicLimit := flag.Int("board_panic_limit", fleet.DefaultBoardPanicLimit, "recovered worker panics before a board is quarantined and evacuated")
	hysteresis := flag.Int("hysteresis", fleet.DefaultHysteresis, "consecutive infeasible barriers before an SLO-driven migration")
	maxMigrations := flag.Int("max_migrations", fleet.DefaultMaxMigrations, "per-stream board hand-off cap")
	cloneMS := flag.Float64("clone_ms", fleet.DefaultCloneMS, "model-clone share of the migration cost in ms")
	noMigration := flag.Bool("no_migration", false, "disable live migration (ablation baseline)")
	ckptInterval := flag.Int("checkpoint_interval", fleet.DefaultCheckpointInterval, "fleet barriers between checkpoint sweeps for crash recovery (negative disables checkpointing)")
	leaseBarriers := flag.Int("lease_barriers", 0, "missed barrier heartbeats before a board is suspect (0 = default)")
	recoveryRetries := flag.Int("recovery_retries", 0, "probes a suspect board gets before it is declared dead (0 = default, negative = none)")
	adaptOn := flag.Bool("adapt", false, "enable online model adaptation on every board (per-stream refit with champion-challenger rollout)")
	adaptStagger := flag.Bool("adapt_stagger", false, "stage the adaptation rollout board by board: each board's promotions unlock only after the previous board promoted (requires -adapt)")
	modelFile := flag.String("models", "", "trained model file from lrtrain (trains a small model set if empty)")
	traceFile := flag.String("trace", "", "write the merged scheduler decision trace (JSON Lines) to this file; a .gz suffix gzip-compresses it")
	fleetTrace := flag.String("fleet_trace", "", "write the fleet placement/migration trace (JSON Lines) to this file; a .gz suffix gzip-compresses it")
	replayTrace := flag.Bool("replay_trace", false, "enrich the decision trace with the scheduler-input replay payload (for lrreplay); traces get large")
	riskQ := flag.Float64("risk_q", 0, "probabilistic SLO admission quantile in (0,1), e.g. 0.95: boards admit branches on the q-quantile latency and placement ranks boards by SLO-attainment probability (0 = legacy mean admission)")
	metrics := flag.Bool("metrics", false, "print the metrics registry (Prometheus exposition format) after the run")
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
	faultSpecs := map[string]*fault.Config{}
	if *faults != "" {
		faultSpecs, err = fault.ParseBoardSpecs(*faults)
		if err != nil {
			log.Fatalf("bad --faults: %v", err)
		}
		boardNames := make([]string, *boards)
		for i := range boardNames {
			boardNames[i] = fmt.Sprintf("b%d", i)
		}
		if err := fault.ValidateBoards(faultSpecs, boardNames); err != nil {
			log.Fatalf("bad --faults: %v", err)
		}
		for _, c := range faultSpecs {
			if c.Seed == 0 {
				c.Seed = *seed
			}
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
	if *traceFile != "" || *fleetTrace != "" || *metrics {
		observer = obs.New()
	}

	var boardCfgs []fleet.BoardConfig
	for i := 0; i < *boards; i++ {
		name := fmt.Sprintf("b%d", i)
		boardCfgs = append(boardCfgs, fleet.BoardConfig{
			Name:     name,
			Device:   dev,
			GPUSlots: *gpuSlots,
			Coupling: *coupling,
			RoundMS:  *roundMS,
			Faults:   fault.BoardConfig(faultSpecs, name),
		})
	}
	var adaptCfg *adapt.Config
	if *adaptOn {
		adaptCfg = &adapt.Config{}
	} else if *adaptStagger {
		log.Fatal("-adapt_stagger requires -adapt")
	}
	fl, err := fleet.New(fleet.Options{
		Models:             models,
		Boards:             boardCfgs,
		BoardPanicLimit:    *panicLimit,
		Hysteresis:         *hysteresis,
		MaxMigrations:      *maxMigrations,
		CloneMS:            *cloneMS,
		DisableMigration:   *noMigration,
		Observer:           observer,
		Adapt:              adaptCfg,
		AdaptStagger:       *adaptStagger,
		CheckpointInterval: *ckptInterval,
		LeaseBarriers:      *leaseBarriers,
		RecoveryRetries:    *recoveryRetries,
		RecoverySeed:       *seed,
		ReplayTrace:        *replayTrace,
		RiskQuantile:       *riskQ,
	})
	if err != nil {
		log.Fatal(err)
	}

	log.Printf("fleet of %d boards on %s: %d GPU slots each, coupling %.2f, round %.0f ms",
		*boards, dev.Name, *gpuSlots, *coupling, *roundMS)
	if *faults != "" {
		log.Printf("fault injection on: %s (seed %d)", *faults, *seed)
	}
	submitted := 0
	for i := 0; i < *streams; i++ {
		v := vid.Generate(fmt.Sprintf("fleet_%03d", i), *seed+300000+int64(i),
			vid.GenConfig{Frames: *frames})
		_, err := fl.Submit(serve.StreamConfig{
			Name:   fmt.Sprintf("stream-%d", i),
			Video:  v,
			SLO:    sloList[i%len(sloList)],
			Policy: policyList[i%len(policyList)],
			Seed:   *seed + int64(i),
		})
		if err != nil {
			log.Printf("stream %d: %v", i, err)
			continue
		}
		submitted++
	}
	log.Printf("%d/%d streams accepted, running...", submitted, *streams)

	rep := fl.Run()
	for i := range rep.Streams {
		fmt.Println(rep.Streams[i].Summary())
	}
	fmt.Println()
	fmt.Print(rep.Summary())

	writeTrace := func(path string, write func(io.Writer) error, what string, n int) {
		f, err := obs.CreateTrace(path)
		if err != nil {
			log.Fatalf("%s: %v", what, err)
		}
		if err := write(f); err != nil {
			log.Fatalf("%s: %v", what, err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("%s: %v", what, err)
		}
		log.Printf("wrote %d %s to %s", n, what, path)
	}
	if *traceFile != "" {
		writeTrace(*traceFile, rep.WriteTrace, "decisions", len(rep.Decisions()))
	}
	if *fleetTrace != "" {
		writeTrace(*fleetTrace, rep.WriteFleetTrace, "fleet events", len(rep.FleetEvents()))
	}
	if *metrics {
		fmt.Println()
		fmt.Print(rep.Metrics().Text())
	}
}
