package mbek

import (
	"fmt"

	"litereconfig/internal/detect"
	"litereconfig/internal/metric"
	"litereconfig/internal/simlat"
	"litereconfig/internal/vid"
)

// BranchEval is the outcome of executing one branch over one snippet: the
// snippet-level mAP (the training label of the content-aware accuracy
// model, Sec. 4) and the mean per-frame kernel latency.
type BranchEval struct {
	MAP    float64
	MeanMS float64
	// DetMS and TrkMS are the per-frame detector and tracker shares.
	DetMS float64
	TrkMS float64
}

// EvalBranch executes branch b over snippet s on a fresh kernel and
// clock, with no scheduler in the loop, and returns the snippet metrics.
// This is the offline measurement primitive used both to build training
// labels and to evaluate oracle accuracy.
func EvalBranch(det detect.Model, s vid.Snippet, b Branch, dev simlat.Device, contention float64, seed int64) BranchEval {
	evs, _ := EvalBranchGroup(det, s, []Branch{b}, dev, contention, []int64{seed})
	return evs[0]
}

// EvalBranchGroup runs EvalBranch for every branch bs[i] with seed
// seeds[i] and returns the results plus each branch's per-frame kernel
// latency series (ms per frame, chronological). The series is what risk
// training needs: snippet means average away exactly the
// GoF-granularity execution noise that serve-time prediction intervals
// must cover, so the variance accumulators are seeded from GoF-window
// means of this series rather than from the aggregate.
//
// The branches must share one detector configuration. A detector pass
// is a pure function of (video, frame, model, configuration), so each
// frame gets at most one, and every branch that starts a GoF there
// reads its output. Each branch keeps its own clock, kernel and
// tracker seeds, so its results are bit-identical to EvalBranch's.
func EvalBranchGroup(det detect.Model, s vid.Snippet, bs []Branch, dev simlat.Device, contention float64, seeds []int64) ([]BranchEval, [][]float64) {
	cfg := bs[0].DetConfig()
	frames := s.Frames()
	type run struct {
		k       *Kernel
		results []metric.FrameResult
		series  []float64
		prev    float64
	}
	runs := make([]run, len(bs))
	for i, b := range bs {
		if b.DetConfig() != cfg {
			panic(fmt.Sprintf("mbek: branch group mixes detector configurations %v and %v", cfg, b.DetConfig()))
		}
		clock := simlat.NewClock(dev, seeds[i])
		clock.SetContention(contention)
		k := newKernel(det, clock)
		k.ColdMisses = false
		k.Start(s.Video)
		k.SetBranch(b, s.Start)
		runs[i] = run{k: k, prev: clock.Now(),
			results: make([]metric.FrameResult, 0, len(frames)),
			series:  make([]float64, 0, len(frames))}
	}

	rng := detect.NewRand()
	for _, f := range frames {
		var dets []metric.Detection
		detected := false
		for i := range runs {
			r := &runs[i]
			if r.k.AtGoFBoundary() && !detected {
				dets, detected = det.DetectWith(rng, s.Video, f, cfg), true
			}
			out := r.k.processFrame(f, dets)
			r.results = append(r.results, metric.FrameResult{Truth: f.Objects, Dets: out})
			now := r.k.Clock.Now()
			r.series = append(r.series, now-r.prev)
			r.prev = now
		}
	}

	n := float64(len(frames))
	evs := make([]BranchEval, len(bs))
	series := make([][]float64, len(bs))
	for i, r := range runs {
		bd := r.k.Clock.Breakdown()
		evs[i] = BranchEval{
			MAP:    metric.MeanAP(r.results, metric.DefaultIoU),
			MeanMS: r.k.Clock.Now() / n,
			DetMS:  bd.Total(CompDetector) / n,
			TrkMS:  bd.Total(CompTracker) / n,
		}
		series[i] = r.series
	}
	return evs, series
}
