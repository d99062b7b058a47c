package cli

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"litereconfig/internal/contend"
	"litereconfig/internal/core"
	"litereconfig/internal/fixture"
	"litereconfig/internal/harness"
	"litereconfig/internal/obs"
	"litereconfig/internal/report"
	"litereconfig/internal/vid"
)

// runCmd mirrors the paper artifact's LiteReconfig.py: one protocol
// (LiteReconfig, MinCost, MaxContent_ResNet, MaxContent_MobileNet,
// ApproxDet, SSD or YOLO) on one simulated device under a latency SLO
// and a GPU contention level, over the validation corpus, writing a
// summary and the per-frame detection and latency logs.
//
//	lr run -gl 0 -lat_req 33.3 -mobile_device tx2 -protocol LiteReconfig \
//	       -models models.gob -output test/executor_LiteReconfig.txt
func runCmd(args []string, stdout, stderr io.Writer) error {
	fs, lg := newCommand("run", stderr)
	gl := fs.Float64("gl", 0, "GPU contention level in percent (0-99)")
	latReq := fs.Float64("lat_req", 33.3, "latency SLO in ms per frame")
	deviceName := deviceFlag(fs)
	protoFlag := fs.String("protocol", "LiteReconfig", "protocol to run")
	modelFile := modelsFlag(fs)
	output := fs.String("output", "", "output file prefix; writes <prefix>_det.txt and <prefix>_lat.txt")
	valVideos := fs.Int("val_videos", 20, "validation videos")
	frames := fs.Int("frames", 240, "frames per validation video")
	seed := seedFlag(fs, "corpus seed")
	var out outputs
	out.register(fs, false, false)
	faults := faultsFlag(fs, "fault-injection spec, e.g. spike=0.05,extract=0.1,burst=0.02,stall=0.01 (empty = no faults)")
	if err := parse(fs, args); err != nil {
		return err
	}

	dev, err := device(*deviceName)
	if err != nil {
		return err
	}
	name, err := protocolName(*protoFlag)
	if err != nil {
		return err
	}
	faultCfg, err := parseFaults(*faults, *seed)
	if err != nil {
		return err
	}
	models, err := loadModels(*modelFile, lg)
	if err != nil {
		return err
	}

	// Validation corpus (disjoint seed range from training, Sec. 5.2).
	val := make([]*vid.Video, *valVideos)
	for i := range val {
		val[i] = vid.Generate(fmt.Sprintf("val_%03d", i),
			*seed+200000+int64(i), vid.GenConfig{Frames: *frames})
	}

	// Protocol setup via the shared experiment builder. SSD+/YOLO+ need
	// offline profiling videos.
	setup := &fixture.Setup{Models: models, Corpus: &vid.Corpus{Val: val}}
	setup.Corpus.DetTrain = make([]*vid.Video, 8)
	for i := range setup.Corpus.DetTrain {
		setup.Corpus.DetTrain[i] = vid.Generate(fmt.Sprintf("prof_%03d", i),
			*seed+int64(i), vid.GenConfig{Frames: *frames})
	}
	sc := report.Scenario{Device: dev, Contention: *gl / 100, SLO: *latReq}
	p, err := report.BuildProtocol(setup, name, sc)
	if err != nil {
		return err
	}
	pl, scheduled := p.(*core.Pipeline)

	if faultCfg != nil {
		if !scheduled {
			return fmt.Errorf("protocol %s has no scheduler; -faults requires a scheduler-driven protocol", name)
		}
		pl.Faults = faultCfg
		pl.FaultSeed = *seed
		lg.Printf("fault injection on: %s (seed %d)", *faults, *seed)
	}

	var observer *obs.Observer
	if out.observed() {
		observer = obs.New()
		if scheduled {
			pl.SetObserver(observer.StreamObserver(0, name))
		} else {
			lg.Printf("protocol %s has no scheduler decisions; trace will be empty", name)
		}
	}

	lg.Printf("running %s on %s, SLO %.1f ms, %.0f%% GPU contention, %d videos",
		name, dev.Name, *latReq, *gl, len(val))
	res := harness.Evaluate(p, val, dev, *latReq, contend.Fixed{G: *gl / 100}, 1234)

	fmt.Fprintln(stdout, res.Summary())
	fmt.Fprintf(stdout, "violation rate: %.2f%% | mean %.2f ms | P95 %.2f ms | branches used: %d | switches: %d\n",
		res.Latency.ViolationRate(*latReq)*100, res.Latency.Mean(),
		res.Latency.P95(), res.BranchCoverage, res.Switches)
	if len(res.FeatureUse) > 0 {
		fmt.Fprintf(stdout, "content features used: %v over %d frames\n", res.FeatureUse, res.Breakdown.Frames())
	}
	if faultCfg != nil {
		fmt.Fprintf(stdout, "degradation: watchdog overruns %d | breaker opens %d | degrade level %d\n",
			pl.Sched.Overruns(), pl.Sched.BreakerOpens(), pl.Sched.DegradeLevel())
	}

	if *output != "" {
		base, err := writeLogs(*output, res)
		if err != nil {
			return err
		}
		lg.Printf("wrote %s_det.txt and %s_lat.txt", base, base)
	}
	if err := writeTrace(lg, out.trace, "decisions", len(observer.Decisions()), observer.WriteTrace); err != nil {
		return err
	}
	if out.metrics {
		printMetrics(stdout, observer.Snapshot().Text())
	}
	return nil
}

// protocolName maps the artifact-style protocol flag to the report
// package's canonical protocol names.
func protocolName(flag string) (string, error) {
	switch strings.ToLower(flag) {
	case "litereconfig":
		return "LiteReconfig", nil
	case "mincost", "litereconfig-mincost":
		return "LiteReconfig-MinCost", nil
	case "maxcontent_resnet", "smartadapt_rpn":
		return "LiteReconfig-MaxContent-ResNet", nil
	case "maxcontent_mobilenet", "smartadapt_mobilenet":
		return "LiteReconfig-MaxContent-MobileNet", nil
	case "approxdet":
		return "ApproxDet", nil
	case "ssd", "ssd+":
		return "SSD+", nil
	case "yolo", "yolo+":
		return "YOLO+", nil
	}
	return "", fmt.Errorf("unknown protocol %q", flag)
}

// writeLogs emits the artifact-style per-frame detection and latency
// files, <base>_det.txt and <base>_lat.txt, where base is prefix
// without its extension, and returns base.
func writeLogs(prefix string, res *harness.Result) (string, error) {
	base := strings.TrimSuffix(prefix, filepath.Ext(prefix))
	if dir := filepath.Dir(base); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
	}
	var det, lat strings.Builder
	for fi, fr := range res.Frames {
		for _, d := range fr.Dets {
			fmt.Fprintf(&det, "%d %s %.3f %.1f %.1f %.1f %.1f\n",
				fi, d.Class, d.Score, d.Box.X, d.Box.Y, d.Box.MaxX(), d.Box.MaxY())
		}
	}
	for i, v := range res.Latency.Samples() {
		fmt.Fprintf(&lat, "%d %.4f\n", i, v)
	}
	if err := os.WriteFile(base+"_det.txt", []byte(det.String()), 0o644); err != nil {
		return "", err
	}
	return base, os.WriteFile(base+"_lat.txt", []byte(lat.String()), 0o644)
}
