// Package litereconfig is a cost- and content-aware reconfiguration
// system for video object detection under latency objectives, a
// reproduction of "LiteReconfig: Cost and Content Aware Reconfiguration
// of Video Object Detection Systems for Mobile GPUs" (EuroSys 2022).
//
// The system pairs a multi-branch execution kernel — a Faster R-CNN
// detector plus four object trackers, with knobs for input shape,
// proposal count, tracker type, Group-of-Frames size and tracker
// downsampling — with a scheduler that, at every GoF boundary, performs a
// cost-benefit analysis to pick which content features to extract, runs
// content-aware accuracy predictors, and solves a switching-cost-aware
// constrained optimization to select the execution branch that maximizes
// accuracy within the latency SLO.
//
// Hardware, CNNs and the video dataset are simulated (see DESIGN.md):
// all latencies are deterministic simulated milliseconds on Jetson
// TX2/AGX Xavier device profiles.
//
// Basic use:
//
//	models, _ := litereconfig.TrainModels(litereconfig.TrainOptions{})
//	sys, _ := litereconfig.NewSystem(models, litereconfig.Config{
//		SLO: 33.3, Device: litereconfig.TX2,
//	})
//	video := litereconfig.GenerateVideo(42, 240)
//	report, _ := sys.ProcessVideo(video)
//	fmt.Printf("mAP %.1f%% at P95 %.1f ms\n", report.MAP*100, report.P95MS)
//
// For serving many concurrent streams on one board — with each stream's
// GPU contention derived from the other streams' measured occupancy —
// see NewServer / Server.Submit / Server.Drain.
package litereconfig

import (
	"fmt"
	"io"

	"litereconfig/internal/contend"
	"litereconfig/internal/core"
	"litereconfig/internal/fault"
	"litereconfig/internal/fixture"
	"litereconfig/internal/harness"
	"litereconfig/internal/metric"
	"litereconfig/internal/obs"
	"litereconfig/internal/sched"
	"litereconfig/internal/serve"
	"litereconfig/internal/simlat"
	"litereconfig/internal/vid"
)

// Device selects the simulated mobile-GPU board.
type Device string

// The two boards of the paper's evaluation.
const (
	TX2    Device = "tx2"
	Xavier Device = "xv"
)

// Policy selects the scheduler variant. Besides the constants below, any
// name core.ParsePolicy accepts is taken: matching ignores case, the
// scheduler names ("LiteReconfig-MinCost") and the short aliases
// "resnet" and "mobilenet" work, and the empty string means Full. A
// forced-feature policy ("force-hog") and an unknown name are errors,
// the latter prefixed "core: unknown policy".
type Policy string

// Scheduler variants (Sec. 4 of the paper).
const (
	// Full is the complete LiteReconfig: cost-benefit feature selection
	// plus switching-cost-aware optimization. The default.
	Full Policy = "full"
	// MinCost is the content-agnostic variant (light features only).
	MinCost Policy = "mincost"
	// MaxContentResNet always uses the detector-shared ResNet50 feature.
	MaxContentResNet Policy = "maxcontent-resnet"
	// MaxContentMobileNet always uses the external MobileNetV2 feature.
	MaxContentMobileNet Policy = "maxcontent-mobilenet"
)

// TrainOptions sizes the offline training phase.
type TrainOptions struct {
	// Videos is the number of scheduler-training videos. Default 24.
	Videos int
	// FramesPerVideo is each training video's length. Default 240.
	FramesPerVideo int
	// Seed drives corpus generation and training. Default 7.
	Seed int64
	// BranchSpace is "small" (20 branches), "medium" (300, default) or
	// "full" (528).
	BranchSpace string
}

// Models is the trained scheduler bundle: accuracy predictors, latency
// regressions, benefit table, switching-cost model.
type Models struct{ m *sched.Models }

// TrainModels runs the offline phase: generates the corpus, measures
// every branch on the training snippets, and trains the predictors.
func TrainModels(opts TrainOptions) (*Models, error) {
	if opts.Videos == 0 {
		opts.Videos = 24
	}
	if opts.FramesPerVideo == 0 {
		opts.FramesPerVideo = 240
	}
	if opts.Seed == 0 {
		opts.Seed = 7
	}
	cfg := sched.Config{Seed: opts.Seed, ProjDim: 24, Hidden: []int{48}}
	switch opts.BranchSpace {
	case "", "medium":
		cfg.Branches = fixture.MediumBranches()
	case "small":
		cfg.Branches = fixture.SmallBranches()
	case "full":
		// nil means mbek.DefaultBranches via applyDefaults.
	default:
		return nil, fmt.Errorf("litereconfig: unknown branch space %q", opts.BranchSpace)
	}
	videos := make([]*vid.Video, opts.Videos)
	for i := range videos {
		videos[i] = vid.Generate(fmt.Sprintf("train_%03d", i),
			opts.Seed+100000+int64(i), vid.GenConfig{Frames: opts.FramesPerVideo})
	}
	ds := sched.Collect(cfg, videos)
	m, err := sched.Train(cfg, ds)
	if err != nil {
		return nil, err
	}
	return &Models{m: m}, nil
}

// Save writes the models in gob format.
func (m *Models) Save(w io.Writer) error { return m.m.Save(w) }

// LoadModels reads models written by Save.
func LoadModels(r io.Reader) (*Models, error) {
	inner, err := sched.Load(r)
	if err != nil {
		return nil, err
	}
	return &Models{m: inner}, nil
}

// Branches returns the number of execution branches the models cover.
func (m *Models) Branches() int { return len(m.m.Branches) }

// Observer collects run telemetry: a metrics registry (counters,
// gauges, latency histograms) and a structured trace of every scheduler
// decision taken at a Group-of-Frames boundary — selected features,
// cost-benefit verdict, chosen branch, predicted versus realized GoF
// latency, switch cost, SLO-feasible branch count. Recording is passive
// and timestamped by the simulated clock, so an observed run takes
// exactly the same decisions as an unobserved one, and fixed-seed runs
// write byte-identical traces.
//
// One Observer may be shared by a System or a Server; it is safe for
// concurrent use.
type Observer struct{ o *obs.Observer }

// NewObserver builds an empty observer.
func NewObserver() *Observer { return &Observer{o: obs.New()} }

// inner returns the internal sink, nil-safe.
func (ob *Observer) inner() *obs.Observer {
	if ob == nil {
		return nil
	}
	return ob.o
}

// MetricsText renders a point-in-time snapshot of the metrics registry
// in Prometheus exposition format.
func (ob *Observer) MetricsText() string { return ob.inner().Snapshot().Text() }

// WriteTrace writes the scheduler decision trace as JSON Lines, one
// decision per line, ordered by (stream, decision sequence).
func (ob *Observer) WriteTrace(w io.Writer) error { return ob.inner().WriteTrace(w) }

// Decisions returns the number of scheduler decisions recorded so far.
func (ob *Observer) Decisions() int { return len(ob.inner().Decisions()) }

// FaultConfig is a deterministic, rate-driven fault-injection schedule
// for chaos testing: every rate is a per-opportunity probability (per
// GoF boundary for spikes, stalls and worker panics; per extraction for
// feature failures; per frame for contention-burst starts), and every
// draw is keyed by (seed, class, frame), so a fixed seed yields the same
// fault schedule — and byte-identical decision traces — on every run.
// Graceful degradation (the scheduler's latency watchdog and
// heavy-feature circuit breaker, and the serving engine's per-stream
// health machine) engages automatically whenever faults are configured.
type FaultConfig struct {
	// Seed drives every draw; each stream mixes in its own seed.
	Seed int64
	// SpikeRate injects latency spikes of SpikeMS (default 40 ms) at GoF
	// boundaries.
	SpikeRate float64
	SpikeMS   float64
	// ExtractFailRate fails heavy-feature extractions (cost still paid).
	ExtractFailRate float64
	// BurstRate starts contention bursts of BurstLevel (default 0.4)
	// lasting BurstFrames frames (default 30).
	BurstRate   float64
	BurstLevel  float64
	BurstFrames int
	// StallRate freezes the stream for StallMS (default 250 ms) at GoF
	// boundaries.
	StallRate float64
	StallMS   float64
	// PanicRate panics the worker goroutine running the stream's round;
	// the serving engine contains the panic, retries the round a bounded
	// number of times, then quarantines the stream. (Single-video
	// System runs ignore PanicRate: there is no worker pool to crash.)
	PanicRate float64
}

// ParseFaultSpec parses the -faults command-line grammar: comma-separated
// key=value pairs over the keys seed, spike, spike_ms, extract, burst,
// burst_level, burst_frames, stall, stall_ms, panic. Example:
//
//	spike=0.05,extract=0.1,stall=0.01,seed=42
func ParseFaultSpec(spec string) (*FaultConfig, error) {
	c, err := fault.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return &FaultConfig{
		Seed: c.Seed, SpikeRate: c.SpikeRate, SpikeMS: c.SpikeMS,
		ExtractFailRate: c.ExtractFailRate,
		BurstRate:       c.BurstRate, BurstLevel: c.BurstLevel, BurstFrames: c.BurstFrames,
		StallRate: c.StallRate, StallMS: c.StallMS,
		PanicRate: c.PanicRate,
	}, nil
}

// inner converts to the internal config, nil-safe.
func (f *FaultConfig) inner() *fault.Config {
	if f == nil {
		return nil
	}
	return &fault.Config{
		Seed: f.Seed, SpikeRate: f.SpikeRate, SpikeMS: f.SpikeMS,
		ExtractFailRate: f.ExtractFailRate,
		BurstRate:       f.BurstRate, BurstLevel: f.BurstLevel, BurstFrames: f.BurstFrames,
		StallRate: f.StallRate, StallMS: f.StallMS,
		PanicRate: f.PanicRate,
	}
}

// Config configures a runtime System.
type Config struct {
	// SLO is the per-frame latency objective in (simulated) milliseconds.
	SLO float64
	// Device is the simulated board. Default TX2.
	Device Device
	// Policy is the scheduler variant. Default Full.
	Policy Policy
	// GPUContention is the fixed background GPU contention level in
	// [0, 0.99] (the paper evaluates 0 and 0.5).
	GPUContention float64
	// Seed fixes the run's stochastic realization. Default 1.
	Seed int64
	// Faults, when set, injects the configured deterministic fault
	// schedule into every ProcessVideo run and engages graceful
	// degradation (watchdog branch ladder + heavy-feature circuit
	// breaker).
	Faults *FaultConfig
	// Observer, when set, records metrics and the scheduler decision
	// trace for every ProcessVideo run.
	Observer *Observer
	// Adapt, when set, closes the loop from realized GoF outcomes back
	// to the scheduler's predictors: online refit with champion–
	// challenger rollout (see AdaptConfig). Nil means frozen models.
	Adapt *AdaptConfig
	// ReplayTrace enriches every recorded decision with the scheduler's
	// full input set for offline counterfactual replay (the lr replay
	// tool / internal replay engine). Requires Observer; off by default
	// — with the flag off, traces are byte-identical to older builds.
	ReplayTrace bool
}

// System is a configured LiteReconfig pipeline ready to process videos.
type System struct {
	pipeline *core.Pipeline
	dev      simlat.Device
	cfg      Config
}

// NewSystem builds a runtime system from trained models.
func NewSystem(models *Models, cfg Config) (*System, error) {
	if models == nil {
		return nil, fmt.Errorf("litereconfig: models are required")
	}
	if cfg.Device == "" {
		cfg.Device = TX2
	}
	dev, ok := simlat.DeviceByName(string(cfg.Device))
	if !ok {
		return nil, fmt.Errorf("litereconfig: unknown device %q", cfg.Device)
	}
	policy, err := serve.ParsePolicy(string(cfg.Policy))
	if err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	p, err := core.NewPipeline(core.Options{
		Models: models.m, SLO: cfg.SLO, Policy: policy,
		Faults:      cfg.Faults.inner(),
		Observer:    cfg.Observer.inner().StreamObserver(0, "system"),
		Adapt:       cfg.Adapt.inner(),
		ReplayTrace: cfg.ReplayTrace,
	})
	if err != nil {
		return nil, err
	}
	p.FaultSeed = cfg.Seed
	return &System{pipeline: p, dev: dev, cfg: cfg}, nil
}

// Video is a synthetic annotated video clip.
type Video struct{ v *vid.Video }

// GenerateVideo creates a deterministic synthetic video with the given
// seed and frame count.
func GenerateVideo(seed int64, frames int) *Video {
	return &Video{v: vid.Generate(fmt.Sprintf("video_%d", seed), seed,
		vid.GenConfig{Frames: frames})}
}

// Frames returns the video length.
func (v *Video) Frames() int { return v.v.Len() }

// Report summarizes one processed stream.
type Report struct {
	// MAP is the mean average precision at IoU 0.5 over all frames.
	MAP float64
	// MeanMS and P95MS are the per-frame latency statistics in simulated
	// milliseconds (averaged per Group-of-Frames, as in the paper).
	MeanMS float64
	P95MS  float64
	// MeetsSLO reports whether the P95 latency stayed within the SLO.
	MeetsSLO bool
	// ViolationRate is the fraction of frames over the SLO.
	ViolationRate float64
	// BranchCoverage is the number of distinct execution branches used.
	BranchCoverage int
	// Switches is the number of branch reconfigurations.
	Switches int
	// FeatureUse counts scheduler decisions per content feature name.
	FeatureUse map[string]int
	// Breakdown is the mean per-frame latency (simulated ms) of each
	// system component ("detector", "tracker", "scheduler", "switch", …),
	// the Figure 3 decomposition.
	Breakdown map[string]float64
	// WatchdogOverruns counts realized GoFs that blew the SLO while
	// graceful degradation was active; BreakerOpens counts heavy-feature
	// circuit-breaker trips. Both are zero for unfaulted runs.
	WatchdogOverruns int
	BreakerOpens     int
	// Adapt summarizes the run's online-adaptation activity (zero when
	// Config.Adapt is nil).
	Adapt AdaptReport
}

// ProcessVideo streams one or more videos through the system and returns
// the aggregate report. Each call is an independent run (fresh clock and
// kernel state).
func (s *System) ProcessVideo(videos ...*Video) (*Report, error) {
	if len(videos) == 0 {
		return nil, fmt.Errorf("litereconfig: no videos")
	}
	inner := make([]*vid.Video, len(videos))
	for i, v := range videos {
		inner[i] = v.v
	}
	res := harness.Evaluate(s.pipeline, inner, s.dev, s.cfg.SLO,
		contend.Fixed{G: s.cfg.GPUContention}, s.cfg.Seed)
	rep := &Report{
		MAP:            res.MAP(),
		MeanMS:         res.Latency.Mean(),
		P95MS:          res.Latency.P95(),
		MeetsSLO:       res.MeetsSLO(),
		ViolationRate:  res.Latency.ViolationRate(s.cfg.SLO),
		BranchCoverage: res.BranchCoverage,
		Switches:       res.Switches,
		FeatureUse:     map[string]int{},
	}
	for k, n := range res.FeatureUse {
		rep.FeatureUse[k.String()] = n
	}
	rep.Breakdown = breakdownMap(res.Breakdown)
	rep.WatchdogOverruns = s.pipeline.Sched.Overruns()
	rep.BreakerOpens = s.pipeline.Sched.BreakerOpens()
	if a := s.pipeline.Sched.Adapter(); a != nil {
		rep.Adapt = AdaptReport{
			ModelVersion: a.VersionLabel(),
			Promotions:   a.Promotions(),
			Demotions:    a.Demotions(),
			Refits:       a.Refits(),
		}
	}
	return rep, nil
}

// breakdownMap flattens a component breakdown into per-frame means.
func breakdownMap(b *metric.Breakdown) map[string]float64 {
	out := map[string]float64{}
	if b == nil {
		return out
	}
	for _, c := range b.Components() {
		out[c] = b.PerFrame(c)
	}
	return out
}
