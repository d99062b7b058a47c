package main

import (
	"bytes"
	"fmt"

	"litereconfig/internal/fixture"
	"litereconfig/internal/mbek"
	"litereconfig/internal/sched"
	"litereconfig/internal/vid"
)

// bundleSeed fixes the scheduler bundle: -seed drives only the generated
// workload inputs, so every run serves from the same models.
const bundleSeed = 7

// scale sizes a run. fullScale is what BENCHMARK.json measures; the
// self-test runs testScale, which keeps every code path and check but
// finishes in seconds.
type scale struct {
	// Scheduler bundle, trained like `lrtrain -space medium -videos 8`.
	branches                                  []mbek.Branch
	trainVideos, trainFrames, snippet, stride int
	epochs                                    int
	setupReps                                 int // set-ups per run; setup_s is their median
	minReps                                   map[string]int
	streams, steadyFrames, driftFrames        int
	boards                                    int
	horizonMS, flashAtMS, flashMS             float64
	minFrames, maxFrames                      int
	crashBoard, crashRound                    int
	blackoutBoard, blackoutRound              int
	replayStreams, replayFrames               int
	cloneCalls                                int // standalone Clone calls timed for sched.clone_ms
}

var fullScale = scale{
	branches:    fixture.MediumBranches(),
	trainVideos: 8, trainFrames: 240, snippet: 100, stride: 35, epochs: 250,
	setupReps: 3,
	minReps: map[string]int{
		"serve_steady": 12, "fleet_churn": 6, "serve_drift": 8, "replay_sweep": 3,
	},
	streams: 12, steadyFrames: 4000, driftFrames: 2000,
	boards: 16, horizonMS: 30000, flashAtMS: 10000, flashMS: 5000,
	minFrames: 24, maxFrames: 240,
	crashBoard: 3, crashRound: 62, blackoutBoard: 9, blackoutRound: 66,
	replayStreams: 72, replayFrames: 60,
	cloneCalls: 20,
}

var testScale = scale{
	branches:    fixture.SmallBranches(),
	trainVideos: 10, trainFrames: 120, snippet: 60, stride: 30, epochs: 120,
	setupReps: 1,
	minReps: map[string]int{
		"serve_steady": 1, "fleet_churn": 1, "serve_drift": 1, "replay_sweep": 1,
	},
	streams: 3, steadyFrames: 120, driftFrames: 120,
	boards: 4, horizonMS: 8000, flashAtMS: 2000, flashMS: 1500,
	minFrames: 24, maxFrames: 60,
	crashBoard: 1, crashRound: 14, blackoutBoard: 2, blackoutRound: 16,
	replayStreams: 3, replayFrames: 60,
	cloneCalls: 3,
}

// bundle is a trained scheduler bundle after its Save/Load round trip,
// with its serialized size and the set-up timings of each stage.
type bundle struct {
	models *sched.Models
	bytes  int
	stageTimes
}

// stageTimes are the wall times, in seconds, of one set-up's stages.
type stageTimes struct {
	collectS, trainS, saveS, loadS, generateS float64
}

// trainBundle trains the scheduler in-process and round-trips it through
// Models.Save and sched.Load, so every run serves from a loaded bundle.
func trainBundle(sc *scale, tr *tracer) (*bundle, error) {
	b := &bundle{}
	videos := make([]*vid.Video, sc.trainVideos)
	b.generateS = timed(tr, "vid.generate", func() {
		for i := range videos {
			videos[i] = vid.Generate(fmt.Sprintf("sched_%03d", i),
				bundleSeed+100000+int64(i), vid.GenConfig{Frames: sc.trainFrames})
		}
	})
	cfg := sched.Config{
		Branches:   sc.branches,
		SnippetLen: sc.snippet, SnippetStride: sc.stride,
		Seed: bundleSeed, Epochs: sc.epochs,
		ProjDim: 24, Hidden: []int{48},
	}
	var ds *sched.Dataset
	b.collectS = timed(tr, "sched.collect", func() { ds = sched.Collect(cfg, videos) })
	var (
		trained *sched.Models
		err     error
	)
	b.trainS = timed(tr, "sched.train", func() { trained, err = sched.Train(cfg, ds) })
	if err != nil {
		return nil, fmt.Errorf("train bundle: %w", err)
	}
	var buf bytes.Buffer
	b.saveS = timed(tr, "sched.save", func() { err = trained.Save(&buf) })
	if err != nil {
		return nil, err
	}
	b.bytes = buf.Len()
	b.loadS = timed(tr, "sched.load", func() { b.models, err = sched.Load(&buf) })
	if err != nil {
		return nil, err
	}
	return b, nil
}
