// Package examples_test holds the repository's worked examples as
// testable Go examples: each runs under go test and its printed output
// is checked against the // Output: block below it. Run one with
//
//	go test -run Example_quickstart -v ./examples
//
// All five share one process-wide fixture.Small: its scheduler models
// are trained once, on first use.
package examples_test

import (
	"fmt"
	"log"
	"math"
	"sort"

	"litereconfig/internal/adapt"
	"litereconfig/internal/baseline"
	"litereconfig/internal/contend"
	"litereconfig/internal/core"
	"litereconfig/internal/detect"
	"litereconfig/internal/feat"
	"litereconfig/internal/fixture"
	"litereconfig/internal/harness"
	"litereconfig/internal/obs"
	"litereconfig/internal/serve"
	"litereconfig/internal/simlat"
	"litereconfig/internal/vid"
)

// smallSet returns the shared compact fixture: a small corpus and the
// scheduler's predictors trained on it.
func smallSet() *fixture.Setup {
	set, err := fixture.Small()
	if err != nil {
		log.Fatal(err)
	}
	return set
}

// Quickstart: build a LiteReconfig system, stream one synthetic video
// through it under a 30 fps latency objective on a simulated Jetson TX2,
// and print what the scheduler decided and what the detector saw.
func Example_quickstart() {
	// 1. Offline phase: train the scheduler's predictors. fixture.Small
	// generates a compact corpus and trains in a couple of seconds; use
	// lr train for the full pipeline.
	set := smallSet()

	// 2. Build the full LiteReconfig pipeline: cost-benefit feature
	// selection + content-aware accuracy prediction + switching-cost
	// aware branch optimization, targeting 33.3 ms per frame (30 fps).
	pipeline, err := core.NewPipeline(core.Options{
		Models: set.Models,
		SLO:    33.3,
		Policy: core.PolicyFull,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. A fresh streaming video the system has never seen.
	video := vid.Generate("quickstart", 424242, vid.GenConfig{Frames: 240})
	fmt.Printf("video: %d frames, %d objects in frame 0, content %q (speed %.1f px/frame)\n",
		video.Len(), len(video.Frames[0].Objects), video.Profile.Archetype, video.Profile.Speed)

	// 4. Run it on a simulated TX2 with no GPU contention.
	res := harness.Evaluate(pipeline, []*vid.Video{video},
		simlat.TX2, 33.3, contend.Fixed{G: 0}, 1)

	// 5. Inspect the outcome.
	fmt.Printf("\n%s\n", res.Summary())
	fmt.Printf("SLO violation rate: %.2f%% (target < 5%%)\n",
		res.Latency.ViolationRate(33.3)*100)
	fmt.Printf("distinct branches used: %d, switches: %d\n",
		res.BranchCoverage, res.Switches)
	fmt.Printf("content features consulted: %v\n", res.FeatureUse)

	fmt.Println("\nfirst-frame detections:")
	for _, d := range res.Frames[0].Dets {
		fmt.Printf("  %-12s score %.2f at %v\n", d.Class, d.Score, d.Box)
	}
	fmt.Println("\nper-component latency:", res.Breakdown)

	// Output:
	// video: 240 frames, 7 objects in frame 0, content "mixed" (speed 8.0 px/frame)
	//
	// LiteReconfig                         mAP= 38.9%  mean=  22.4ms  p95=  27.9ms
	// SLO violation rate: 0.00% (target < 5%)
	// distinct branches used: 2, switches: 5
	// content features consulted: map[resnet50:20]
	//
	// first-frame detections:
	//   zebra        score 0.80 at [266.2,92.1 79.8x98.3]
	//   zebra        score 0.81 at [830.4,497.7 106.7x109.1]
	//   zebra        score 0.69 at [909.4,505.0 115.4x114.3]
	//   zebra        score 0.79 at [357.3,120.3 98.1x138.0]
	//   zebra        score 0.89 at [10.0,436.4 84.9x76.6]
	//
	// per-component latency: detector=9.13ms/frame scheduler=1.16ms/frame switch=0.09ms/frame tracker=12.05ms/frame
}

// Contention: LiteReconfig adapting to GPU contention that turns on and
// off mid-stream, versus a contention-unaware baseline (YOLO+) that
// blows through its latency objective the moment a co-located
// application grabs the GPU.
func Example_contention() {
	const slo = 50.0 // ms per frame (20 fps)
	set := smallSet()

	// Background load: quiet for 120 frames, then a co-located app takes
	// 50% of the GPU for 120 frames, repeating.
	cg := contend.Phased{Phases: []contend.Phase{
		{Frames: 120, G: 0},
		{Frames: 120, G: 0.5},
	}}

	videos := make([]*vid.Video, 4)
	for i := range videos {
		videos[i] = vid.Generate(fmt.Sprintf("cam%d", i), 7000+int64(i),
			vid.GenConfig{Frames: 240})
	}

	lr, err := core.NewPipeline(core.Options{
		Models: set.Models, SLO: slo, Policy: core.PolicyFull,
	})
	if err != nil {
		log.Fatal(err)
	}
	yolo := baseline.NewEnhanced("YOLO+", detect.YOLOv3, slo, simlat.TX2,
		set.Corpus.DetTrain)

	fmt.Printf("SLO: %.0f ms per frame; contention: 0%% <-> 50%% every 120 frames\n\n", slo)
	for _, p := range []harness.Protocol{lr, yolo} {
		res := harness.Evaluate(p, videos, simlat.TX2, slo, cg, 99)
		status := "meets SLO"
		if !res.MeetsSLO() {
			status = "VIOLATES SLO"
		}
		fmt.Printf("%-14s mAP %.1f%%  p95 %6.1f ms  violations %5.2f%%  switches %3d  -> %s\n",
			p.Name(), res.MAP()*100, res.Latency.P95(),
			res.Latency.ViolationRate(slo)*100, res.Switches, status)
	}

	// Show LiteReconfig's reaction frame by frame around a phase change.
	fmt.Println("\nLiteReconfig per-frame latency around the contention onset (frames 110-135):")
	lr2, _ := core.NewPipeline(core.Options{
		Models: set.Models, SLO: slo, Policy: core.PolicyFull,
	})
	res := harness.Evaluate(lr2, videos[:1], simlat.TX2, slo, cg, 99)
	samples := res.Latency.Samples()
	for f := 110; f < 135 && f < len(samples); f++ {
		bar := ""
		for i := 0.0; i < samples[f]; i += 2 {
			bar += "#"
		}
		fmt.Printf("  frame %3d  %6.1f ms  %s\n", f, samples[f], bar)
	}

	// Output:
	// SLO: 50 ms per frame; contention: 0% <-> 50% every 120 frames
	//
	// LiteReconfig   mAP 57.6%  p95   36.6 ms  violations  0.00%  switches   9  -> meets SLO
	// YOLO+          mAP 55.7%  p95   50.2 ms  violations  5.83%  switches   0  -> VIOLATES SLO
	//
	// LiteReconfig per-frame latency around the contention onset (frames 110-135):
	//   frame 110    23.0 ms  ############
	//   frame 111    23.0 ms  ############
	//   frame 112    23.0 ms  ############
	//   frame 113    23.0 ms  ############
	//   frame 114    23.0 ms  ############
	//   frame 115    23.0 ms  ############
	//   frame 116    23.0 ms  ############
	//   frame 117    23.0 ms  ############
	//   frame 118    23.0 ms  ############
	//   frame 119    23.0 ms  ############
	//   frame 120    27.5 ms  ##############
	//   frame 121    27.5 ms  ##############
	//   frame 122    27.5 ms  ##############
	//   frame 123    27.5 ms  ##############
	//   frame 124    27.5 ms  ##############
	//   frame 125    27.5 ms  ##############
	//   frame 126    27.5 ms  ##############
	//   frame 127    27.5 ms  ##############
	//   frame 128    27.5 ms  ##############
	//   frame 129    27.5 ms  ##############
	//   frame 130    27.5 ms  ##############
	//   frame 131    27.5 ms  ##############
	//   frame 132    27.5 ms  ##############
	//   frame 133    27.5 ms  ##############
	//   frame 134    27.5 ms  ##############
}

// meanAbsErr is the mean |predicted − realized| per-frame GoF latency
// over all completed decisions.
func meanAbsErr(ds []obs.Decision) float64 {
	sum, n := 0.0, 0
	for _, d := range ds {
		if d.GoFFrames <= 0 {
			continue
		}
		sum += math.Abs(d.PredLatencyMS - d.RealizedMS)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Drift: the two online-drift mechanisms of Sec. 6. The scheduler's
// offline latency profile assumes a healthy TX2, but the actual board
// thermally throttles its CPU to 1.8x the profiled cost. Three ways to
// face that:
//
//   - the hand-built EWMA drift estimator senses the gap from observed
//     tracker latencies and scales the CPU estimates (the default);
//   - nothing (ablation): frozen models plan with stale costs and
//     tracker-heavy branches blow through the SLO stream-long;
//   - online refit (package adapt): with the estimator off, a
//     challenger copy of the models learns the drift into its own
//     coefficients from realized GoF outcomes and is promoted champion
//     once it provably predicts better.
//
// The "pred err" column is the mean |predicted − realized| per-frame
// GoF latency error, the adaptation subsystem's acceptance metric.
func Example_drift() {
	const slo = 33.3
	set := smallSet()

	// The real board: CPU 1.8x slower than the profile (throttling).
	throttled := simlat.TX2
	throttled.Name = "tx2-throttled"
	throttled.CPUFactor = 1.8
	assumed := simlat.TX2 // what the offline profile was measured on

	fmt.Printf("device: TX2 with CPU thermally throttled to 1.8x profiled cost; SLO %.1f ms\n\n", slo)
	for _, mode := range []struct {
		label   string
		disable bool
		adapt   *adapt.Config
	}{
		{"drift estimator (default)", false, nil},
		{"frozen models, no estimator (ablation)", true, nil},
		{"online refit, no estimator", true, &adapt.Config{Label: "s0"}},
	} {
		observer := obs.New()
		p, err := core.NewPipeline(core.Options{
			Models: set.Models, SLO: slo, Policy: core.PolicyFull,
			AssumedDevice:            &assumed,
			DisableDriftCompensation: mode.disable,
			Adapt:                    mode.adapt,
			Observer:                 observer.StreamObserver(0, "drift"),
		})
		if err != nil {
			log.Fatal(err)
		}
		r := harness.Evaluate(p, set.Corpus.Val, throttled, slo, contend.Fixed{}, 9)
		line := fmt.Sprintf("%-40s mAP %.1f%%  p95 %5.1f ms  SLO violations %5.2f%%  pred err %.2f ms",
			mode.label, r.MAP()*100, r.Latency.P95(),
			r.Latency.ViolationRate(slo)*100, meanAbsErr(observer.Decisions()))
		if a := p.Sched.Adapter(); a != nil {
			line += fmt.Sprintf("  [%s, %d refits, %d promotions]",
				a.VersionLabel(), a.Refits(), a.Promotions())
		}
		fmt.Println(line)
	}
	fmt.Println("\nThe estimator watches observed-vs-predicted tracker cost each GoF and")
	fmt.Println("scales its CPU latency estimates. Online refit reaches the same place")
	fmt.Println("without the hand-built sensor: it learns the throttle into the latency")
	fmt.Println("model itself (a global CPU-side multiplier plus per-branch corrections)")
	fmt.Println("and swaps the refit models in via champion-challenger promotion.")

	// Output:
	// device: TX2 with CPU thermally throttled to 1.8x profiled cost; SLO 33.3 ms
	//
	// drift estimator (default)                mAP 40.8%  p95  34.7 ms  SLO violations  5.83%  pred err 3.23 ms
	// frozen models, no estimator (ablation)   mAP 54.3%  p95  44.7 ms  SLO violations 47.92%  pred err 9.17 ms
	// online refit, no estimator               mAP 42.0%  p95  38.8 ms  SLO violations 10.42%  pred err 4.00 ms  [s0.v4, 156 refits, 4 promotions]
	//
	// The estimator watches observed-vs-predicted tracker cost each GoF and
	// scales its CPU latency estimates. Online refit reaches the same place
	// without the hand-built sensor: it learns the throttle into the latency
	// model itself (a global CPU-side multiplier plus per-branch corrections)
	// and swaps the refit models in via champion-challenger promotion.
}

// Featurecost: trace the cost-benefit analyzer's decisions, which
// heavy-weight content features the full LiteReconfig scheduler
// recruits at different latency objectives and contention levels, and
// what they cost (Sec. 3.4 of the paper).
func Example_featurecost() {
	set := smallSet()

	fmt.Println("feature menu (Table 1 costs, TX2 ms):")
	for _, k := range feat.HeavyKinds() {
		s := feat.SpecOf(k)
		shared := ""
		if s.ExtractSharedMS < s.ExtractMS {
			shared = fmt.Sprintf(" (%.1f when shared with the detector)", s.ExtractSharedMS)
		}
		fmt.Printf("  %-12s extract %7.2f%s + predict %5.2f\n",
			k, s.ExtractMS, shared, s.PredictMS)
	}

	fmt.Println("\ncost-benefit decisions per scenario:")
	fmt.Printf("%-28s %-10s %s\n", "scenario", "decisions", "features recruited (count)")
	for _, sc := range []struct {
		slo float64
		g   float64
	}{
		{20, 0}, {33.3, 0}, {50, 0}, {100, 0},
		{33.3, 0.5}, {100, 0.5},
	} {
		p, err := core.NewPipeline(core.Options{
			Models: set.Models, SLO: sc.slo, Policy: core.PolicyFull,
		})
		if err != nil {
			log.Fatal(err)
		}
		harness.Evaluate(p, set.Corpus.Val, simlat.TX2, sc.slo,
			contend.Fixed{G: sc.g}, 5)
		use := p.Sched.FeatureUse()
		var parts []string
		for _, k := range feat.HeavyKinds() {
			if n := use[k]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s(%d)", k, n))
			}
		}
		sort.Strings(parts)
		line := "none (content-agnostic)"
		if len(parts) > 0 {
			line = fmt.Sprint(parts)
		}
		fmt.Printf("SLO %5.1f ms, %2.0f%% contention  %-10d %s\n",
			sc.slo, sc.g*100, p.Sched.Decisions(), line)
	}
	fmt.Println("\nThe analyzer prices each feature's extraction+prediction against its")
	fmt.Println("benefit-table gain: MobileNetV2's 154 ms stall never fits a tight SLO,")
	fmt.Println("while the detector-shared ResNet50 feature is nearly free.")

	// Output:
	// feature menu (Table 1 costs, TX2 ms):
	//   hoc          extract   14.14 + predict  4.94
	//   hog          extract   25.32 + predict  4.93
	//   resnet50     extract   26.96 (4.0 when shared with the detector) + predict  6.07
	//   cpop         extract    3.62 (1.2 when shared with the detector) + predict  4.84
	//   mobilenetv2  extract  153.96 + predict  9.33
	//
	// cost-benefit decisions per scenario:
	// scenario                     decisions  features recruited (count)
	// SLO  20.0 ms,  0% contention  48         none (content-agnostic)
	// SLO  33.3 ms,  0% contention  180        [resnet50(20)]
	// SLO  50.0 ms,  0% contention  178        none (content-agnostic)
	// SLO 100.0 ms,  0% contention  550        [resnet50(550)]
	// SLO  33.3 ms, 50% contention  79         [resnet50(36)]
	// SLO 100.0 ms, 50% contention  252        [resnet50(214)]
	//
	// The analyzer prices each feature's extraction+prediction against its
	// benefit-table gain: MobileNetV2's 154 ms stall never fits a tight SLO,
	// while the detector-shared ResNet50 feature is nearly free.
}

// board serves n streams of the given policy on one board and returns
// the report.
func board(set *fixture.Setup, n int, policy core.Policy, slo float64, frames int) *serve.Result {
	srv, err := serve.New(serve.Options{Models: set.Models, GPUSlots: 2})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := vid.Generate(fmt.Sprintf("cam%d", i), 9000+int64(i),
			vid.GenConfig{Frames: frames})
		if _, err := srv.Submit(serve.StreamConfig{
			Name: fmt.Sprintf("cam%d", i), Video: v, SLO: slo,
			Policy: policy, Seed: 50 + int64(i),
		}); err != nil {
			log.Fatal(err)
		}
	}
	return srv.Drain()
}

// Multistream: serve a growing number of concurrent camera streams on
// one simulated board and watch (1) cross-stream contention rise as the
// board fills, (2) SLO attainment degrade, and (3) the Full policy react
// to its neighbors, reconfiguring branches as the coupled contention
// climbs, while the content-agnostic MinCost variant sits on its one
// cheap branch.
func Example_multistream() {
	const (
		slo    = 33.3 // ms per frame (30 fps)
		frames = 100
	)
	set := smallSet()

	// Part 1: the board fills up. Every stream runs the full
	// LiteReconfig policy; the only contention is the other streams.
	fmt.Printf("\n=== one board, more and more streams (SLO %.1f ms) ===\n", slo)
	fmt.Printf("%8s  %14s  %10s  %10s  %8s\n",
		"streams", "cross-cont", "attain", "violation", "switches")
	for _, n := range []int{1, 2, 4, 8} {
		r := board(set, n, core.PolicyFull, slo, frames)
		violation, switches := 0.0, 0
		for _, st := range r.Streams {
			violation += st.ViolationRate / float64(len(r.Streams))
			switches += st.Switches
		}
		fmt.Printf("%8d  %14.2f  %9.0f%%  %9.1f%%  %8d\n",
			n, r.MeanContention, r.AttainRate*100, violation*100, switches)
	}

	// Part 2: how do the variants steer on a crowded board? Both sense
	// the coupled contention and reconfigure away from blown budgets
	// (cost-awareness), but only the Full policy keeps spending on heavy
	// content features to pick the most accurate branch that still fits.
	fmt.Println("\n=== 8 crowded streams: Full vs MinCost ===")
	for _, p := range []core.Policy{core.PolicyFull, core.PolicyMinCost} {
		r := board(set, 8, p, slo, frames)
		switches, heavy := 0, 0
		mAP := 0.0
		for _, st := range r.Streams {
			switches += st.Switches
			mAP += st.MAP / float64(len(r.Streams))
			for _, n := range st.Raw.FeatureUse {
				heavy += n
			}
		}
		fmt.Printf("%-22s attain=%3.0f%%  mAP=%5.1f%%  switches=%2d  heavy-feature-decisions=%3d\n",
			r.Streams[0].Policy, r.AttainRate*100, mAP*100, switches, heavy)
	}
	fmt.Println("\nBoth variants reconfigure as their neighbors heat the board, but")
	fmt.Println("only Full pays for content features to steer the reconfiguration.")

	// Output:
	// === one board, more and more streams (SLO 33.3 ms) ===
	//  streams      cross-cont      attain   violation  switches
	//        1            0.00        100%        0.0%         0
	//        2            0.14        100%        0.0%         0
	//        4            0.42         75%        5.0%         5
	//        8            0.80         75%        7.0%         7
	//
	// === 8 crowded streams: Full vs MinCost ===
	// LiteReconfig           attain= 75%  mAP= 55.4%  switches= 7  heavy-feature-decisions= 40
	// LiteReconfig-MinCost   attain= 88%  mAP= 55.4%  switches= 7  heavy-feature-decisions=  0
	//
	// Both variants reconfigure as their neighbors heat the board, but
	// only Full pays for content features to steer the reconfiguration.
}
