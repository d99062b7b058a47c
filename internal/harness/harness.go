// Package harness runs protocols (LiteReconfig variants and baselines)
// over the validation corpus and collects the paper's metrics: mAP on the
// processed frames, mean and P95 per-frame latency (averaged per GoF, as
// in Sec. 5.2), SLO violation rates, per-component latency breakdowns
// (Figure 3), branch coverage (Figure 4) and the online switch log
// (Figure 5b).
package harness

import (
	"fmt"

	"litereconfig/internal/contend"
	"litereconfig/internal/fault"
	"litereconfig/internal/feat"
	"litereconfig/internal/mbek"
	"litereconfig/internal/metric"
	"litereconfig/internal/obs"
	"litereconfig/internal/simlat"
	"litereconfig/internal/vid"
)

// Protocol is anything that can process the corpus on a simulated device.
// Implementations charge all work to the clock and fill a Result.
type Protocol interface {
	// Name identifies the protocol in tables.
	Name() string
	// Run processes the videos in order on the given clock, with the
	// contention generator driving the GPU contention level per frame.
	Run(videos []*vid.Video, clock *simlat.Clock, cg contend.Generator) *Result
}

// Result is the outcome of one protocol evaluation.
type Result struct {
	Protocol string
	Device   simlat.Device
	SLO      float64 // 0 means "no SLO" (Table 3 regime)

	Frames  []metric.FrameResult
	Latency metric.LatencySeries

	Breakdown      *metric.Breakdown
	BranchCoverage int
	Switches       int
	SwitchLog      []mbek.SwitchEvent
	FeatureUse     map[feat.Kind]int

	// OOM marks a protocol that could not load on the device (Table 3).
	OOM bool
	// MemoryGB is the protocol's resident working set.
	MemoryGB float64
}

// MAP returns the mean average precision over all processed frames.
func (r *Result) MAP() float64 {
	return metric.MeanAP(r.Frames, metric.DefaultIoU)
}

// MeetsSLO reports whether the P95 per-frame latency is within the SLO.
func (r *Result) MeetsSLO() bool {
	if r.OOM {
		return false
	}
	return r.Latency.MeetsSLO(r.SLO)
}

// Summary renders the row the paper's tables report.
func (r *Result) Summary() string {
	if r.OOM {
		return fmt.Sprintf("%-36s OOM", r.Protocol)
	}
	mark := ""
	if r.SLO > 0 && !r.MeetsSLO() {
		mark = " [F]"
	}
	return fmt.Sprintf("%-36s mAP=%5.1f%%  mean=%6.1fms  p95=%6.1fms%s",
		r.Protocol, r.MAP()*100, r.Latency.Mean(), r.Latency.P95(), mark)
}

// Evaluate runs one protocol over the corpus on a fresh clock.
func Evaluate(p Protocol, videos []*vid.Video, dev simlat.Device, slo float64,
	cg contend.Generator, seed int64) *Result {
	clock := simlat.NewClock(dev, seed)
	r := p.Run(videos, clock, cg)
	r.Protocol = p.Name()
	r.Device = dev
	r.SLO = slo
	if r.Breakdown == nil {
		r.Breakdown = clock.Breakdown()
	}
	return r
}

// Decider chooses the branch for the GoF starting at frame f; it may
// charge scheduler work to the clock.
type Decider interface {
	Decide(k *mbek.Kernel, clock *simlat.Clock, v *vid.Video, f vid.Frame) mbek.Branch
}

// GoFFeedback is an optional Decider extension: the stepper reports the
// realized outcome of every completed Group-of-Frames (frame count and
// GoF-averaged per-frame latency) back to a decider that implements it.
// The LiteReconfig scheduler uses it for its latency-budget watchdog.
type GoFFeedback interface {
	ObserveGoF(frames int, avgMS float64)
}

// GoFOutcome is the full realized result of one completed
// Group-of-Frames, assembled at the flush barrier for deciders that
// adapt their models online.
type GoFOutcome struct {
	// Frames and AvgMS mirror GoFFeedback: executed frame count and the
	// GoF-averaged realized per-frame latency.
	Frames int
	AvgMS  float64
	// MeanAP is the GoF's realized detection accuracy against ground
	// truth; HasAcc marks it valid.
	MeanAP float64
	HasAcc bool
	// DetBaseMS and TrkBaseMS are the GoF's total detector and tracker
	// cost in base units (TX2, zero contention) — deltas of the kernel's
	// cumulative base-cost counters across the GoF. They are exact, so
	// an adapter can refit per-frame base-cost models without undoing
	// device scaling, contention, or drift. TrkBaseMS is zero for a
	// detect-every-frame GoF.
	DetBaseMS float64
	TrkBaseMS float64
}

// OutcomeFeedback is an optional Decider extension for online model
// adaptation: at every GoF flush the stepper delivers the realized
// outcome — latency, accuracy and kernel observations — to a decider
// that implements it. AdaptActive gates the extra accounting (per-GoF
// mAP scoring); a decider with adaptation switched off returns false
// and the stepper skips the work entirely.
type OutcomeFeedback interface {
	AdaptActive() bool
	ObserveGoFOutcome(GoFOutcome)
}

// SwitchFeedback is an optional Decider extension: the stepper reports
// every realized branch-switch cost (the milliseconds the kernel
// actually charged, cold misses included) so an adaptive decider can
// refresh its observed C(b0, b) table.
type SwitchFeedback interface {
	ObserveSwitch(from, to mbek.Branch, costMS float64)
}

// RunKernelLoop is the shared streaming loop for MBEK-based protocols:
// per frame it updates contention, consults the decider at GoF
// boundaries, executes the kernel, and samples the GoF-averaged per-frame
// latency into the result.
func RunKernelLoop(k *mbek.Kernel, d Decider, videos []*vid.Video,
	clock *simlat.Clock, cg contend.Generator, res *Result) {

	s := NewStepper(k, d, videos, clock, cg, res)
	for s.Step() {
	}
	s.Finish()
}

// Stepper advances a kernel-based protocol one Group-of-Frames at a
// time, accumulating the same Result as RunKernelLoop. The serving
// engine uses it to interleave many streams on one board: between Step
// calls the caller may inspect the clock (occupancy, simulated time) and
// change the contention the generator will report next.
type Stepper struct {
	k      *mbek.Kernel
	d      Decider
	clock  *simlat.Clock
	cg     contend.Generator
	res    *Result
	videos []*vid.Video

	vi, fi      int // current video / next frame within it
	globalFrame int
	gofStart    float64
	gofFrames   int
	gofs        int // completed GoF windows (checkpoint consistency unit)
	finished    bool

	// inj is the stream's fault injector (nil = no faults): boundary
	// latency faults (spikes, stalls) are charged to the clock right
	// after the decision record opens, so they land in the new GoF's
	// latency window and the watchdog sees the overrun.
	inj *fault.Injector
	// fb is the decider's optional GoF feedback hook, resolved once;
	// ofb and sfb are the adaptation extensions (outcome and switch-cost
	// feedback). gofFrameStart indexes the first result frame of the
	// open GoF window so the flush can score just that GoF's accuracy.
	fb            GoFFeedback
	ofb           OutcomeFeedback
	sfb           SwitchFeedback
	gofFrameStart int
	// scorer keeps the mAP scratch across the per-GoF scoring of an
	// adaptive stream and the stream-end score (MAP).
	scorer metric.Scorer
	// detBase0/trkBase0 snapshot the kernel's cumulative base-cost
	// counters at the open GoF's start; flush diffs them for the
	// outcome's exact base-unit GoF cost.
	detBase0, trkBase0 float64

	// Observability (all nil when unobserved): the stream view records
	// one Decision per GoF boundary — opened before the decider runs,
	// closed with the realized GoF latency at the next flush — and the
	// cached metric handles keep the registry off the hot path.
	so         *obs.StreamObserver
	gofLatHist *obs.Histogram
	framesCtr  *obs.Counter
	gofsCtr    *obs.Counter
}

// SetObserver attaches an observability view to the stepper. Call before
// the first Step. Recording is passive (no clock or RNG interaction), so
// observed and unobserved runs take identical scheduling decisions.
func (s *Stepper) SetObserver(so *obs.StreamObserver) {
	s.so = so
	if r := so.Registry(); r != nil {
		s.gofLatHist = r.Histogram("harness_gof_frame_latency_ms", obs.DefaultLatencyBuckets)
		s.framesCtr = r.Counter("harness_frames_total")
		s.gofsCtr = r.Counter("harness_gofs_total")
	}
}

// NewStepper prepares a stepwise run of the decider-driven kernel loop
// over the videos. The result is filled incrementally by Step and
// finalized by Finish.
func NewStepper(k *mbek.Kernel, d Decider, videos []*vid.Video,
	clock *simlat.Clock, cg contend.Generator, res *Result) *Stepper {
	s := &Stepper{k: k, d: d, clock: clock, cg: cg, res: res,
		videos: videos, gofStart: clock.Now()}
	s.fb, _ = d.(GoFFeedback)
	s.ofb, _ = d.(OutcomeFeedback)
	s.sfb, _ = d.(SwitchFeedback)
	return s
}

// SetInjector attaches the stream's fault injector. Call before the
// first Step; a nil injector means no faults.
func (s *Stepper) SetInjector(inj *fault.Injector) { s.inj = inj }

// SetGenerator replaces the contention generator consulted before each
// frame. The serving engine calls it when a stream migrates to another
// board, whose coupling and fault environment differ. Steppers rest at
// GoF boundaries between Step calls, so the swap never lands mid-GoF.
func (s *Stepper) SetGenerator(cg contend.Generator) { s.cg = cg }

// Injector returns the attached fault injector (nil when unfaulted).
// The serving engine's worker reads it to fire scheduled panics.
func (s *Stepper) Injector() *fault.Injector { return s.inj }

// flush samples the GoF-averaged per-frame latency of the completed GoF
// (if any) and opens a new measurement window at the current clock time.
func (s *Stepper) flush() {
	if s.gofFrames > 0 {
		avg := (s.clock.Now() - s.gofStart) / float64(s.gofFrames)
		for i := 0; i < s.gofFrames; i++ {
			s.res.Latency.Add(avg)
		}
		if s.so != nil {
			s.so.EndGoF(s.gofFrames, avg)
			s.gofLatHist.Observe(avg)
			s.framesCtr.Add(float64(s.gofFrames))
			s.gofsCtr.Inc()
		}
		if s.fb != nil {
			s.fb.ObserveGoF(s.gofFrames, avg)
		}
		if s.ofb != nil && s.ofb.AdaptActive() {
			o := GoFOutcome{Frames: s.gofFrames, AvgMS: avg}
			if gof := s.res.Frames[s.gofFrameStart:]; len(gof) > 0 {
				o.MeanAP = s.scorer.MeanAP(gof, metric.DefaultIoU)
				o.HasAcc = true
			}
			det, trk := s.k.BaseCostTotals()
			o.DetBaseMS = det - s.detBase0
			o.TrkBaseMS = trk - s.trkBase0
			s.ofb.ObserveGoFOutcome(o)
		}
		s.gofFrames = 0
		s.gofs++
	}
	s.gofStart = s.clock.Now()
	s.gofFrameStart = len(s.res.Frames)
	s.detBase0, s.trkBase0 = s.k.BaseCostTotals()
}

// Step runs the next Group-of-Frames: it advances to the next video if
// needed, sets the contention level, consults the decider once, and
// executes the kernel until the next GoF boundary or the end of the
// video. It reports false once the corpus is exhausted.
func (s *Stepper) Step() bool {
	if s.finished {
		return false
	}
	for s.vi < len(s.videos) && s.fi >= len(s.videos[s.vi].Frames) {
		s.flush()
		s.vi++
		s.fi = 0
	}
	if s.vi >= len(s.videos) {
		return false
	}
	v := s.videos[s.vi]
	if s.fi == 0 {
		s.k.Start(v)
	}
	// By construction the kernel sits at a GoF boundary here: close the
	// previous latency window, then decide. Decision and switch costs
	// fall into the new GoF's window, as in the paper's accounting.
	s.clock.SetContention(s.cg.Level(s.globalFrame))
	s.flush()
	if s.so != nil {
		s.so.BeginDecision(s.globalFrame, s.clock.Now())
	}
	if s.inj != nil {
		// Boundary latency faults (spikes, stalls) charge after the flush
		// so they fall into the new GoF's latency window — the watchdog
		// then sees the overrun they cause.
		if ms, events := s.inj.Boundary(s.globalFrame); ms > 0 {
			s.clock.ChargeExact("fault", ms)
			d := s.so.Pending()
			if d != nil {
				d.FaultMS = ms
			}
			r := s.so.Registry()
			for _, e := range events {
				if d != nil {
					d.FaultEvents = append(d.FaultEvents, e.String())
				}
				if r != nil {
					r.Counter(`fault_injected_total{class="` + e.Class.String() + `"}`).Inc()
				}
			}
		}
	}
	sw := s.k.Switches()
	prev, hadPrev := s.k.Branch(), s.k.HasBranch()
	b := s.d.Decide(s.k, s.clock, v, v.Frames[s.fi])
	cost := s.k.SetBranch(b, s.globalFrame)
	switched := s.k.Switches() > sw
	if s.sfb != nil && switched && hadPrev {
		s.sfb.ObserveSwitch(prev, b, cost)
	}
	if d := s.so.Pending(); d != nil {
		d.Branch = b.String()
		d.Switched = switched
		d.SwitchCostMS = cost
	}
	for {
		f := v.Frames[s.fi]
		s.clock.SetContention(s.cg.Level(s.globalFrame))
		dets := s.k.ProcessFrame(f)
		s.res.Frames = append(s.res.Frames, metric.FrameResult{
			Truth: f.Objects, Dets: dets,
		})
		s.gofFrames++
		s.globalFrame++
		s.fi++
		if s.fi >= len(v.Frames) || s.k.AtGoFBoundary() {
			return true
		}
	}
}

// Frames returns the number of frames processed so far.
func (s *Stepper) Frames() int { return s.globalFrame }

// MAP returns the result's mean average precision over the frames
// processed so far, as Result.MAP does, scored with the stepper's
// reusable scratch.
func (s *Stepper) MAP() float64 { return s.scorer.MeanAP(s.res.Frames, metric.DefaultIoU) }

// GoFs returns the number of completed Group-of-Frames windows so far.
// GoF boundaries are the checkpoint consistency points: recovery
// replays whole GoFs, never partial ones.
func (s *Stepper) GoFs() int { return s.gofs }

// Resume fast-forwards a fresh stepper to a checkpointed position:
// globalFrame frames and gofs completed GoF windows are marked done
// without executing them, and the video/frame cursor is advanced to
// match. Call before the first Step, on a stepper whose clock has
// already been Restored to the checkpoint's simulated time. If the
// cursor lands mid-video the kernel is started on that video so the
// first Step does not restart it from frame zero — the restored stream
// pays a cold branch switch instead, modeling the detector reload a
// real recovery performs.
func (s *Stepper) Resume(globalFrame, gofs int) {
	if globalFrame <= 0 {
		return
	}
	s.globalFrame = globalFrame
	s.gofs = gofs
	rest := globalFrame
	for s.vi < len(s.videos) && rest >= len(s.videos[s.vi].Frames) {
		rest -= len(s.videos[s.vi].Frames)
		s.vi++
	}
	s.fi = rest
	if s.vi < len(s.videos) && s.fi > 0 {
		s.k.Start(s.videos[s.vi])
	}
	// Open a clean measurement window at the restored clock position:
	// the lost GoFs' latency samples died with the board, and the first
	// post-restore GoF must not be billed for pre-crash time.
	s.gofStart = s.clock.Now()
	s.gofFrameStart = len(s.res.Frames)
	s.detBase0, s.trkBase0 = s.k.BaseCostTotals()
}

// Done reports whether the corpus is exhausted.
func (s *Stepper) Done() bool {
	return s.finished ||
		(s.vi >= len(s.videos)-1 &&
			(s.vi >= len(s.videos) || s.fi >= len(s.videos[s.vi].Frames)))
}

// Finish flushes the trailing GoF and finalizes the result (branch
// coverage, switch log, per-component breakdown). It is idempotent; no
// Step calls are allowed after it.
func (s *Stepper) Finish() {
	if s.finished {
		return
	}
	s.finished = true
	s.flush()
	s.res.BranchCoverage = s.k.BranchCoverage()
	s.res.Switches = s.k.Switches()
	s.res.SwitchLog = s.k.SwitchLog()
	s.res.Breakdown = s.clock.Breakdown()
	s.res.Breakdown.AddFrames(s.globalFrame)
	if s.so != nil {
		s.so.Close()
		if r := s.so.Registry(); r != nil {
			for _, c := range s.res.Breakdown.Components() {
				r.Counter(`harness_component_ms_total{component="` + c + `"}`).
					Add(s.res.Breakdown.Total(c))
			}
		}
	}
}
