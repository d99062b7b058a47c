package main

import (
	"fmt"
	"io"
	"path/filepath"

	"litereconfig/internal/obs"
	"litereconfig/internal/replay"
	"litereconfig/internal/serve"
	"litereconfig/internal/vid"
)

// The replay sweep: every SLO override (0 keeps each stream's recorded
// SLO) under every risk setting (nil replays as recorded). The first
// pass is the identity configuration.
var (
	replaySLOs  = []float64{0, 20, 25, 33.3, 40, 50, 75, 100}
	replayRisks = []*float64{nil, ptr(0), ptr(0.95)}
)

func ptr(v float64) *float64 { return &v }

// recordCorpora records the replay_sweep inputs in set-up: two corpora
// of different streams served with the replay payload on, one under
// mean admission and one at risk quantile 0.95, each written as a
// gzipped JSON-lines decision trace.
func (r *runner) recordCorpora(tr *tracer) error {
	r.corpus = r.corpus[:0]
	r.corpusBytes = 0
	var (
		mapSum float64
		frames int
		err    error
	)
	r.recordS = timed(tr, "replay.record", func() {
		for c, q := range []float64{0, 0.95} {
			path := filepath.Join(r.o.out, fmt.Sprintf("replay-%s-q%g.jsonl.gz", r.o.workload, q))
			var rows []serve.StreamResult
			if rows, err = r.record(path, q, int64(c)); err != nil {
				return
			}
			for _, s := range rows {
				mapSum += s.MAP * float64(s.Frames)
				frames += s.Frames
			}
			r.corpus = append(r.corpus, path)
		}
	})
	r.corpusMAP = ratio(mapSum, float64(frames))
	return err
}

// record serves one corpus, writes its trace to path and returns the
// served rows.
func (r *runner) record(path string, riskQ float64, corpus int64) ([]serve.StreamResult, error) {
	srv, err := serve.New(serve.Options{Models: r.b.models, Observer: obs.New(),
		QueueLimit: r.sc.replayStreams, ReplayTrace: true, RiskQuantile: riskQ})
	if err != nil {
		return nil, err
	}
	for i := 0; i < r.sc.replayStreams; i++ {
		t := tiers[i%len(tiers)]
		name := fmt.Sprintf("%s-%d", t.Name, i)
		if _, err := srv.Submit(serve.StreamConfig{
			Name:           name,
			Video:          vid.Generate(name, r.o.seed*1_000_003+corpus*1000+int64(i), vid.GenConfig{Frames: r.sc.replayFrames}),
			SLO:            t.SLOMS,
			Class:          t.Name,
			Seed:           r.o.seed*1000 + corpus*100 + int64(i) + 1,
			BaseContention: 0.1,
		}); err != nil {
			srv.Kill()
			return nil, err
		}
	}
	res := srv.Drain()
	f, err := obs.CreateTrace(path)
	if err != nil {
		return nil, err
	}
	var cw countWriter
	if err := res.WriteTrace(io.MultiWriter(f, &cw)); err != nil {
		f.Close()
		return nil, fmt.Errorf("record %s: %w", path, err)
	}
	r.corpusBytes += cw.n
	return res.Streams, f.Close()
}

// replayRep runs one rep of replay_sweep: load the recorded corpora and
// replay them under every sweep configuration. Every rep does the same
// work; the inputs come from set-up.
func (r *runner) replayRep(rep int, tr *tracer) (*repOut, error) {
	out := &repOut{counts: map[string]float64{}}
	win := openWindow()
	var (
		c   *replay.Corpus
		err error
	)
	id := tr.begin("obs.read")
	c, err = replay.Load(r.corpus...)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	var results []*replay.Result
	for _, slo := range replaySLOs {
		for _, q := range replayRisks {
			id := tr.begin("replay.pass")
			var res *replay.Result
			e, err := replay.New(replay.Config{Models: r.b.models, SLOMS: slo, RiskQuantile: q})
			if err == nil {
				res, err = e.Replay(c)
			}
			tr.end(id)
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
	}
	win.close(out)

	identity := results[0]
	out.tries = identity.Replayed.Decisions
	out.failed = identity.DivergedDecisions
	if identity.DivergedDecisions != 0 {
		out.problem("identity replay diverged on %d of %d decisions",
			identity.DivergedDecisions, identity.Replayed.Decisions)
	}
	for _, res := range results {
		out.frames += res.Replayed.Frames
		out.offeredFrames += res.Replayed.Frames
		out.counts["replay.decisions"] += float64(res.Replayed.Decisions)
		out.counts["replay.missing_heavy"] += float64(res.MissingHeavy)
		out.counts["replay.frames"] += float64(res.Replayed.Frames)
		out.counts["replay.pred_acc_frames"] += res.Replayed.MeanAccuracy * float64(res.Replayed.Frames)
		for _, o := range r.chainOutcomes(res.Redecisions) {
			out.outcomes = append(out.outcomes, o)
			if o.gold {
				out.goldFrames += o.frames
			}
		}
	}
	out.counts["replay.passes"] = float64(len(results))
	return out, nil
}

// chainOutcomes folds one pass's redecisions into an outcome per
// recorded stream: the estimated per-frame latency of each frame and the
// frames whose estimate meets the replay SLO. Replay estimates no mAP,
// so every frame carries the mAP the corpus was served at. Recorded
// streams were submitted in tier order, so stream id i has tier i mod 3.
func (r *runner) chainOutcomes(rds []replay.Redecision) []outcome {
	var out []outcome
	for i := range rds {
		rd := &rds[i]
		if i == 0 || rd.File != rds[i-1].File || rd.Stream != rds[i-1].Stream || rd.Gen != rds[i-1].Gen {
			out = append(out, outcome{gold: tiers[rd.Stream%len(tiers)].Name == "gold",
				served: true, firstMS: -1})
		}
		o := &out[len(out)-1]
		o.frames += rd.Frames
		o.mapSum += r.corpusMAP * float64(rd.Frames)
		if rd.Attained {
			o.within += rd.Frames
		}
		for j := 0; j < rd.Frames; j++ {
			o.lat = append(o.lat, rd.EstMS)
		}
	}
	return out
}
