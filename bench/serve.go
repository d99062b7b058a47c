package main

import (
	"fmt"

	"litereconfig/internal/adapt"
	"litereconfig/internal/contend"
	"litereconfig/internal/core"
	"litereconfig/internal/fault"
	"litereconfig/internal/harness"
	"litereconfig/internal/mbek"
	"litereconfig/internal/obs"
	"litereconfig/internal/serve"
	"litereconfig/internal/simlat"
	"litereconfig/internal/vid"
	"litereconfig/internal/workload"
)

// tiers are the gold/silver/besteffort SLO classes every workload uses;
// serve streams cycle through them by submission index.
var tiers = workload.DefaultTiers()

// simComponents are the simulated-clock components of the paper's
// Fig. 3 latency breakdown, as charged by the kernel, scheduler, fault
// injector and fleet migration.
var simComponents = []string{"detector", "tracker", "scheduler", "switch", "fault", "migrate"}

// attribStream is one rep-0 stream as the attribution pass re-runs it
// alone.
type attribStream struct {
	cfg        serve.StreamConfig
	contention float64 // the stream's served MeanContention
	faults     *fault.Config
}

// serveDevice is the board a serve workload runs on: a TX2, CPU-throttled
// to 1.8× its profiled cost under drift.
func serveDevice(drift bool) simlat.Device {
	d := simlat.TX2
	if drift {
		d.CPUFactor = 1.8
	}
	return d
}

// serveRep runs one rep of serve_steady (drift false) or serve_drift:
// a closed population of streams submitted at t=0 to one board, stepped
// round by round and drained.
func (r *runner) serveRep(drift bool, rep int, tr *tracer) (*repOut, error) {
	seed := r.o.seed + int64(rep)
	frames := r.sc.steadyFrames
	opts := serve.Options{Models: r.b.models, Device: serveDevice(drift)}
	if drift {
		frames = r.sc.driftFrames
		opts.Faults = &fault.Config{Seed: seed + 5, SpikeRate: 0.05, ExtractFailRate: 0.08}
		opts.Adapt = &adapt.Config{}
		opts.Observer = obs.New()
	}
	out := &repOut{counts: map[string]float64{}}
	cfgs := make([]serve.StreamConfig, r.sc.streams)
	out.counts["vid.generate_s"] = timed(nil, "", func() {
		for i := range cfgs {
			t := tiers[i%len(tiers)]
			name := fmt.Sprintf("%s-%d", t.Name, i)
			cfgs[i] = serve.StreamConfig{
				Name:           name,
				Video:          vid.Generate(name, seed*1_000_003+int64(i), vid.GenConfig{Frames: frames}),
				SLO:            t.SLOMS,
				Class:          t.Name,
				Seed:           seed*1000 + int64(i) + 1,
				BaseContention: 0.1,
			}
		}
	})

	win := openWindow()
	var (
		srv *serve.Server
		err error
	)
	id := tr.begin("serve.new")
	srv, err = serve.New(opts)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	for _, cfg := range cfgs {
		id := tr.begin("serve.submit")
		_, err := srv.Submit(cfg)
		tr.end(id)
		if err != nil {
			srv.Kill()
			return nil, err
		}
	}
	for {
		id := tr.begin("serve.step_round")
		more := srv.StepRound()
		tr.end(id)
		if !more {
			break
		}
	}
	id = tr.begin("serve.drain")
	res := srv.Drain()
	tr.end(id)
	var cw countWriter
	if drift {
		id = tr.begin("obs.write_trace")
		err = res.WriteTrace(&cw)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	win.close(out)

	out.frames = res.TotalFrames
	out.tries = len(cfgs)
	out.offeredFrames = len(cfgs) * frames
	out.goldFrames = (len(cfgs) + len(tiers) - 1) / len(tiers) * frames
	roundMS := srv.Options().RoundMS
	if len(res.Streams) != len(cfgs) {
		out.problem("%d of %d submitted streams reported", len(res.Streams), len(cfgs))
	}
	if rep == 0 {
		r.attrib = r.attrib[:0]
	}
	for i := range res.Streams {
		s := &res.Streams[i]
		o := servedOutcome(s, float64(s.WaitRounds)*roundMS)
		out.outcomes = append(out.outcomes, o)
		if !o.served {
			out.failed++
		}
		if !s.Quarantined && s.Frames != frames {
			out.problem("stream %s served %d of %d frames", s.Name, s.Frames, frames)
		}
		addBreakdown(out.counts, s)
		if rep == 0 && s.ID < len(cfgs) {
			r.attrib = append(r.attrib, attribStream{cfg: cfgs[s.ID],
				contention: s.MeanContention, faults: opts.Faults})
		}
	}
	clones := srv.Clones()
	if drift {
		// Each adapter clones its stream's models once for the challenger
		// and once per promotion or demotion.
		clones += len(res.Streams) + res.Promotions + res.Demotions
	}
	out.counts["sched.clones"] = float64(clones)
	out.counts["serve.rounds"] = float64(res.Rounds)
	out.counts["serve.preemptions"] = float64(res.Preemptions)
	out.counts["serve.quarantined"] = float64(res.Quarantined)
	out.counts["adapt.refits"] = float64(res.Refits)
	out.counts["adapt.promotions"] = float64(res.Promotions)
	out.counts["adapt.demotions"] = float64(res.Demotions)
	out.counts["obs.bytes"] = float64(cw.n)
	out.counts["obs.decisions"] = float64(len(res.Decisions()))
	return out, nil
}

// addBreakdown sums a stream's simulated-time breakdown into counts.
func addBreakdown(counts map[string]float64, s *serve.StreamResult) {
	if s.Raw == nil || s.Raw.Breakdown == nil {
		return
	}
	for _, c := range simComponents {
		counts["simlat."+c] += s.Raw.Breakdown.Total(c)
	}
	counts["simlat.frames"] += float64(s.Raw.Breakdown.Frames())
}

// attribution is what the single-stream attribution pass counted.
type attribution struct {
	gofs, decisions, heavy, breakerOpens, overruns, switches int
}

// attribute re-runs rep 0's streams one at a time in a harness.Stepper,
// built as internal/perf builds its measurement loop: a fresh models
// clone, contention fixed at the stream's served mean, and the rep's
// device, faults and adaptation. The scheduler is wrapped so that each
// decider hook is a child span of its harness.step.
func (r *runner) attribute(drift bool, tr *tracer) (*attribution, error) {
	tr.setRep(repAttrib)
	a := &attribution{}
	for _, as := range r.attrib {
		models, err := r.b.models.Clone()
		if err != nil {
			return nil, err
		}
		copts := core.Options{Models: models, SLO: as.cfg.SLO, Policy: core.PolicyFull}
		if drift {
			copts.Adapt = &adapt.Config{Label: as.cfg.Name}
		}
		p, err := core.NewPipeline(copts)
		if err != nil {
			return nil, err
		}
		clock := simlat.NewClock(serveDevice(drift), as.cfg.Seed)
		k := mbek.NewKernel(p.Det, clock)
		var inj *fault.Injector
		if as.faults != nil {
			inj = fault.NewInjector(*as.faults, as.cfg.Seed)
		}
		p.Sched.SetInjector(inj)
		st := harness.NewStepper(k, tracedDecider{p.Sched, tr}, []*vid.Video{as.cfg.Video},
			clock, fault.WrapContention(contend.Fixed{G: as.contention}, inj), &harness.Result{})
		st.SetInjector(inj)
		for {
			id := tr.begin("harness.step")
			more := st.Step()
			tr.end(id)
			if !more {
				break
			}
			a.gofs++
		}
		timed(tr, "harness.finish", st.Finish)
		a.decisions += p.Sched.Decisions()
		for _, n := range p.Sched.FeatureUse() {
			a.heavy += n
		}
		a.breakerOpens += p.Sched.BreakerOpens()
		a.overruns += p.Sched.Overruns()
		a.switches += k.Switches()
	}
	return a, nil
}

// tracedDecider wraps a stream scheduler so every hook the harness
// calls on it runs inside its own span.
type tracedDecider struct {
	s  *core.Scheduler
	tr *tracer
}

func (d tracedDecider) Decide(k *mbek.Kernel, c *simlat.Clock, v *vid.Video, f vid.Frame) mbek.Branch {
	id := d.tr.begin("core.decide")
	b := d.s.Decide(k, c, v, f)
	d.tr.end(id)
	return b
}

func (d tracedDecider) ObserveGoF(frames int, avgMS float64) {
	id := d.tr.begin("core.observe_gof")
	d.s.ObserveGoF(frames, avgMS)
	d.tr.end(id)
}

func (d tracedDecider) AdaptActive() bool { return d.s.AdaptActive() }

func (d tracedDecider) ObserveGoFOutcome(o harness.GoFOutcome) {
	id := d.tr.begin("adapt.observe_outcome")
	d.s.ObserveGoFOutcome(o)
	d.tr.end(id)
}

func (d tracedDecider) ObserveSwitch(from, to mbek.Branch, costMS float64) {
	id := d.tr.begin("adapt.observe_switch")
	d.s.ObserveSwitch(from, to, costMS)
	d.tr.end(id)
}
