package core

import (
	"litereconfig/internal/contend"
	"litereconfig/internal/detect"
	"litereconfig/internal/fault"
	"litereconfig/internal/harness"
	"litereconfig/internal/mbek"
	"litereconfig/internal/obs"
	"litereconfig/internal/simlat"
	"litereconfig/internal/vid"
)

// Pipeline is the end-to-end LiteReconfig system: the MBEK (Faster R-CNN
// plus trackers) driven by a Scheduler variant. It implements
// harness.Protocol.
type Pipeline struct {
	Sched *Scheduler
	Det   detect.Model

	// ExtraPerFrameMS adds a constant CPU-side per-frame pipeline
	// overhead, charged to the "pipeline" component. Zero for
	// LiteReconfig; the ApproxDet baseline models its heavier TF-1.x
	// pipeline with it.
	ExtraPerFrameMS float64
	// NameOverride replaces the scheduler variant name (baselines reuse
	// this pipeline under their own name).
	NameOverride string
	// MemoryGB is the resident working set reported in Table 3.
	MemoryGB float64
	// Observer is the opt-in observability view Run attaches to its
	// stepper (decision trace + GoF latency metrics). Copied from
	// Options.Observer by NewPipeline; to attach one after construction
	// use SetObserver, which also wires the scheduler.
	Observer *obs.StreamObserver

	// Faults is the rate-driven fault schedule (nil or disabled = no
	// faults). Run builds a fresh injector per run, seeded by FaultSeed,
	// attaches it to the scheduler and stepper, and wraps the contention
	// generator with the injector's burst windows. Copied from
	// Options.Faults by NewPipeline.
	Faults *fault.Config
	// FaultSeed decorrelates fault schedules across streams sharing one
	// Faults config; zero means stream 1.
	FaultSeed int64
}

// SetObserver attaches the observability view to both the pipeline's
// stepper wiring and its scheduler. Must be called before Run.
func (p *Pipeline) SetObserver(so *obs.StreamObserver) {
	p.Observer = so
	p.Sched.SetObserver(so)
}

// NewPipeline builds the standard LiteReconfig pipeline for the given
// scheduler options.
func NewPipeline(opts Options) (*Pipeline, error) {
	s, err := New(opts)
	if err != nil {
		return nil, err
	}
	mem := 3.4 + 0.27 // detector + light predictor
	switch opts.Policy {
	case PolicyFull, PolicyMaxContentMobileNet:
		mem += 0.45 // MobileNetV2 extractor resident
	}
	return &Pipeline{Sched: s, Det: detect.FasterRCNN, MemoryGB: mem,
		Observer: opts.Observer, Faults: opts.Faults}, nil
}

// Name implements harness.Protocol.
func (p *Pipeline) Name() string {
	if p.NameOverride != "" {
		return p.NameOverride
	}
	return p.Sched.Name()
}

// injector builds the per-run fault injector, or nil for an unfaulted
// run.
func (p *Pipeline) injector() *fault.Injector {
	if p.Faults == nil || !p.Faults.Enabled() {
		return nil
	}
	seed := p.FaultSeed
	if seed == 0 {
		seed = 1
	}
	return fault.NewInjector(*p.Faults, seed)
}

// Run implements harness.Protocol.
func (p *Pipeline) Run(videos []*vid.Video, clock *simlat.Clock, cg contend.Generator) *harness.Result {
	res := &harness.Result{MemoryGB: p.MemoryGB}
	k := mbek.NewKernel(p.Det, clock)
	var d harness.Decider = p.Sched
	if p.ExtraPerFrameMS > 0 {
		// Charge the constant pipeline overhead through the decider hook.
		d = chargingDecider{p.Sched, p.ExtraPerFrameMS}
	}
	inj := p.injector()
	p.Sched.SetInjector(inj) // resets degradation state every run
	cg = fault.WrapContention(cg, inj)
	s := harness.NewStepper(k, d, videos, clock, cg, res)
	s.SetObserver(p.Observer)
	s.SetInjector(inj)
	for s.Step() {
	}
	s.Finish()
	res.FeatureUse = p.Sched.FeatureUse()
	return res
}

// chargingDecider charges the per-GoF share of the pipeline overhead at
// each decision (GoF boundary), approximating a constant per-frame cost
// without modifying the shared loop. The scheduler's feedback hooks
// (watchdog, adapter, switch costs) pass through the embedding.
type chargingDecider struct {
	*Scheduler
	extraMS float64
}

// Decide implements harness.Decider.
func (d chargingDecider) Decide(k *mbek.Kernel, clock *simlat.Clock, v *vid.Video, f vid.Frame) mbek.Branch {
	b := d.Scheduler.Decide(k, clock, v, f)
	// Pre-charge this GoF's pipeline overhead: constant per frame times
	// the chosen GoF length.
	clock.Charge("pipeline", simlat.CPU, d.extraMS*float64(b.GoF))
	return b
}
