package cli

import (
	"errors"
	"fmt"
	"io"
	"log"

	"litereconfig/internal/adapt"
	"litereconfig/internal/fault"
	"litereconfig/internal/fleet"
	"litereconfig/internal/obs"
	"litereconfig/internal/serve"
)

// fleetCmd runs the multi-board fleet dispatcher: streams placed over
// simulated boards by cost/content-aware placement, with live migration
// off failed or contended boards and checkpoint-based crash recovery
// (DESIGN.md §10 and §15). -faults takes a board-scoped spec, e.g.
// "spike=0.01;b1:panic=0.3" or "b1:crash=9;b2:blackout=5".
//
//	lr fleet -boards 3 -streams 9 -slos 50,100 -mobile_device tx2 \
//	         -faults "b1:panic=0.3" -fleet_trace fleet.jsonl
func fleetCmd(args []string, stdout, stderr io.Writer) error {
	fs, lg := newCommand("fleet", stderr)
	boards := fs.Int("boards", 3, "number of boards in the fleet")
	streams := fs.Int("streams", 9, "number of streams to submit")
	var mix streamMix
	mix.register(fs, "50,100")
	deviceName := deviceFlag(fs)
	var board boardShape
	board.register(fs, "")
	frames := fs.Int("frames", 120, "frames per stream video")
	seed := seedFlag(fs, "base seed for stream videos")
	faults := faultsFlag(fs, `board-scoped fault spec: semicolon-separated entries, each "<spec>" (fleet-wide) or "<board>:<spec>", e.g. "spike=0.01;b1:panic=0.3"`)
	panicLimit := fs.Int("board_panic_limit", fleet.DefaultBoardPanicLimit, "recovered worker panics before a board is quarantined and evacuated")
	hysteresis := fs.Int("hysteresis", fleet.DefaultHysteresis, "consecutive infeasible barriers before an SLO-driven migration")
	maxMigrations := fs.Int("max_migrations", fleet.DefaultMaxMigrations, "per-stream board hand-off cap")
	cloneMS := fs.Float64("clone_ms", fleet.DefaultCloneMS, "model-clone share of the migration cost in ms")
	noMigration := fs.Bool("no_migration", false, "disable live migration (ablation baseline)")
	ckptInterval := fs.Int("checkpoint_interval", fleet.DefaultCheckpointInterval, "fleet barriers between checkpoint sweeps for crash recovery (negative disables checkpointing)")
	leaseBarriers := fs.Int("lease_barriers", 0, "missed barrier heartbeats before a board is suspect (0 = default)")
	recoveryRetries := fs.Int("recovery_retries", 0, "probes a suspect board gets before it is declared dead (0 = default, negative = none)")
	adaptOn := fs.Bool("adapt", false, "enable online model adaptation on every board (per-stream refit with champion-challenger rollout)")
	adaptStagger := fs.Bool("adapt_stagger", false, "stage the adaptation rollout board by board: each board's promotions unlock only after the previous board promoted (requires -adapt)")
	modelFile := modelsFlag(fs)
	var out outputs
	out.register(fs, true, true)
	riskQ := fs.Float64("risk_q", 0, "probabilistic SLO admission quantile in (0,1), e.g. 0.95: boards admit branches on the q-quantile latency and placement ranks boards by SLO-attainment probability (0 = legacy mean admission)")
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
	boardNames := make([]string, *boards)
	for i := range boardNames {
		boardNames[i] = fmt.Sprintf("b%d", i)
	}
	faultSpecs := map[string]*fault.Config{}
	if *faults != "" {
		if faultSpecs, err = fault.ParseBoardSpecs(*faults); err == nil {
			err = fault.ValidateBoards(faultSpecs, boardNames)
		}
		if err != nil {
			return fmt.Errorf("bad -faults: %w", err)
		}
		for _, c := range faultSpecs {
			if c.Seed == 0 {
				c.Seed = *seed
			}
		}
	}
	var adaptCfg *adapt.Config
	if *adaptOn {
		adaptCfg = &adapt.Config{}
	} else if *adaptStagger {
		return errors.New("-adapt_stagger requires -adapt")
	}
	models, err := loadModels(*modelFile, lg)
	if err != nil {
		return err
	}

	var observer *obs.Observer
	if out.observed() {
		observer = obs.New()
	}
	var boardCfgs []fleet.BoardConfig
	for _, name := range boardNames {
		boardCfgs = append(boardCfgs, fleet.BoardConfig{
			Name:     name,
			Device:   dev,
			GPUSlots: board.gpuSlots,
			Coupling: board.coupling,
			RoundMS:  board.roundMS,
			Faults:   fault.BoardConfig(faultSpecs, name),
		})
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
		ReplayTrace:        out.replayTrace,
		RiskQuantile:       *riskQ,
	})
	if err != nil {
		return err
	}

	lg.Printf("fleet of %d boards on %s: %d GPU slots each, coupling %.2f, round %.0f ms",
		*boards, dev.Name, board.gpuSlots, board.coupling, board.roundMS)
	if *faults != "" {
		lg.Printf("fault injection on: %s (seed %d)", *faults, *seed)
	}
	submitted := submitStreams(lg, *streams, *frames, *seed, "fleet", sloList, policyList,
		func(c serve.StreamConfig) error { _, err := fl.Submit(c); return err })
	lg.Printf("%d/%d streams accepted, running...", submitted, *streams)

	rep := fl.Run()
	printStreams(stdout, rep.Streams, rep.Summary())
	return writeFleetOutputs(lg, stdout, rep, &out)
}

// writeFleetOutputs writes the traces and the metrics dump of a fleet
// report that out asks for.
func writeFleetOutputs(lg *log.Logger, stdout io.Writer, rep *fleet.Report, out *outputs) error {
	if err := writeTrace(lg, out.trace, "decisions", len(rep.Decisions()), rep.WriteTrace); err != nil {
		return err
	}
	if err := writeTrace(lg, out.fleetTrace, "fleet events", len(rep.FleetEvents()), rep.WriteFleetTrace); err != nil {
		return err
	}
	if out.metrics {
		printMetrics(stdout, rep.Metrics().Text())
	}
	return nil
}
