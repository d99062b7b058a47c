package cli

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"litereconfig/internal/adapt"
	"litereconfig/internal/contend"
	"litereconfig/internal/core"
	"litereconfig/internal/fixture"
	"litereconfig/internal/harness"
	"litereconfig/internal/mbek"
	"litereconfig/internal/sched"
	"litereconfig/internal/simlat"
	"litereconfig/internal/vid"
)

// trainCmd runs the scheduler's offline training pipeline (Sec. 4 /
// 5.2): generate the corpus, label every branch over the training
// snippets, train the predictors, latency regressions and benefit
// table, and write the bundle that the other subcommands take as
// -models. -load prints an existing bundle's summary and a held-out
// run instead; -registry_out also writes a registry seeded with the
// bundle as the offline baseline "offline.v0".
//
//	lr train -out models.gob -space medium -videos 20 -epochs 250
func trainCmd(args []string, stdout, stderr io.Writer) error {
	fs, lg := newCommand("train", stderr)
	out := fs.String("out", "models.gob", "output model file")
	space := fs.String("space", "medium", "branch space: small, medium or full")
	videos := fs.Int("videos", 20, "scheduler-training videos")
	frames := fs.Int("frames", 240, "frames per video")
	seed := seedFlag(fs, "corpus and training seed")
	epochs := fs.Int("epochs", 250, "max training epochs")
	snippet := fs.Int("snippet", 100, "snippet length N (look-ahead window)")
	stride := fs.Int("stride", 35, "snippet stride")
	load := fs.String("load", "", "load this model file and print its evaluation summary instead of retraining")
	slo := fs.Float64("slo", 50, "per-frame SLO in ms for the -load evaluation run")
	registryOut := fs.String("registry_out", "", "also write a versioned model registry seeded with the bundle as offline baseline")
	if err := parse(fs, args); err != nil {
		return err
	}

	if *load != "" {
		models, err := sched.LoadFile(*load)
		if err != nil {
			return fmt.Errorf("load models: %w", err)
		}
		if err := summarize(stdout, models, *load, *seed, *slo); err != nil {
			return err
		}
		return saveRegistry(lg, *registryOut, models)
	}

	var branches []mbek.Branch
	switch *space {
	case "small":
		branches = fixture.SmallBranches()
	case "medium":
		branches = fixture.MediumBranches()
	case "full":
		branches = mbek.DefaultBranches()
	default:
		return fmt.Errorf("unknown branch space %q (want small, medium or full)", *space)
	}

	lg.Printf("generating %d training videos (%d frames each)", *videos, *frames)
	train := make([]*vid.Video, *videos)
	for i := range train {
		train[i] = vid.Generate(fmt.Sprintf("sched_%03d", i),
			*seed+100000+int64(i), vid.GenConfig{Frames: *frames})
	}

	cfg := sched.Config{
		Branches:   branches,
		SnippetLen: *snippet, SnippetStride: *stride,
		Seed: *seed, Epochs: *epochs,
		ProjDim: 24, Hidden: []int{48},
	}

	t0 := time.Now()
	lg.Printf("collecting labels: %d branches x training snippets", len(branches))
	ds := sched.Collect(cfg, train)
	lg.Printf("collected %d labeled snippets in %v", len(ds.Samples), time.Since(t0).Round(time.Millisecond))

	t1 := time.Now()
	lg.Printf("training predictors (light + 5 content towers + %d latency regressions)", 2*len(branches))
	models, err := sched.Train(cfg, ds)
	if err != nil {
		return fmt.Errorf("training failed: %w", err)
	}
	lg.Printf("trained in %v", time.Since(t1).Round(time.Millisecond))

	if err := models.SaveFile(*out); err != nil {
		return fmt.Errorf("save failed: %w", err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	lg.Printf("wrote %s (%d branches, %.1f MB)", *out, len(models.Branches),
		float64(st.Size())/1e6)
	return saveRegistry(lg, *registryOut, models)
}

// summarize prints a loaded bundle's contents, its online-adaptation
// calibration state, and a quick held-out evaluation run (fresh videos
// the training corpus never saw, fixed contention, Full policy).
func summarize(w io.Writer, models *sched.Models, path string, seed int64, slo float64) error {
	fmt.Fprintf(w, "%s: %d branches, feature seed %d, %d content towers, %d latency regressions\n",
		path, len(models.Branches), models.FeatureSeed, len(models.ContentNets),
		len(models.LatDet)+len(models.LatTrk))
	if models.Ben != nil {
		fmt.Fprintf(w, "benefit table: %d budgets\n", len(models.Ben.BudgetsMS))
	}
	adapted := 0
	for _, b := range models.LatBiasMS {
		if b != 0 {
			adapted++
		}
	}
	if adapted > 0 || models.AccScale != 0 || models.LatCPUAdj != 0 {
		fmt.Fprintf(w, "adaptation state: %d/%d branch latency biases, acc recalibration %.4f·a%+.4f, CPU adj x%.4f\n",
			adapted, len(models.LatBiasMS), multiplier(models.AccScale), models.AccBias,
			multiplier(models.LatCPUAdj))
	} else {
		fmt.Fprintln(w, "adaptation state: none (freshly trained / pre-adaptation bundle)")
	}

	dev := simlat.TX2
	p, err := core.NewPipeline(core.Options{Models: models, SLO: slo, Policy: core.PolicyFull})
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	eval := make([]*vid.Video, 3)
	for i := range eval {
		eval[i] = vid.Generate(fmt.Sprintf("eval_%03d", i), seed+700000+int64(i),
			vid.GenConfig{Frames: 120})
	}
	r := harness.Evaluate(p, eval, dev, slo, contend.Fixed{}, seed)
	status := "VIOLATED"
	if r.MeetsSLO() {
		status = "ok"
	}
	fmt.Fprintf(w, "evaluation (%d held-out videos, SLO %.1f ms, %s): mAP=%.1f%% mean=%.1fms p95=%.1fms [%s]\n",
		len(eval), slo, dev.Name, 100*r.MAP(), r.Latency.Mean(), r.Latency.Percentile(95), status)
	return nil
}

// multiplier maps the calibration fields' 0-means-identity encoding to
// the printable multiplier.
func multiplier(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// saveRegistry writes a one-version registry holding the bundle as the
// offline baseline, ready to seed a board's online adaptation. An
// empty path writes nothing.
func saveRegistry(lg *log.Logger, path string, models *sched.Models) error {
	if path == "" {
		return nil
	}
	reg := adapt.NewRegistry()
	if err := reg.Commit(adapt.Version{
		Label:  "offline.v0",
		Source: "offline",
		Stream: "offline",
	}, models); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	if err := reg.SaveFile(path); err != nil {
		return fmt.Errorf("save registry: %w", err)
	}
	lg.Printf("wrote registry %s (1 version: offline.v0)", path)
	return nil
}
