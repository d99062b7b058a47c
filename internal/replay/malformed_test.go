package replay

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"litereconfig/internal/fixture"
	"litereconfig/internal/obs"
	"litereconfig/internal/sched"
	"litereconfig/internal/serve"
	"litereconfig/internal/vid"
)

// recordHeavy records one loose-SLO stream whose full-policy decisions
// extract heavy features, so its payloads carry both vector kinds.
func recordHeavy(t testing.TB) []obs.Decision {
	t.Helper()
	ds := recordServe(t, serve.Options{}, nil, []serve.StreamConfig{{SLO: 100, Seed: 1}})
	for i := range ds {
		if ds[i].Replay != nil && len(ds[i].Replay.Heavy) > 0 {
			return ds
		}
	}
	t.Fatal("no recorded decision extracted a heavy feature")
	return nil
}

// TestMalformedVectorsFailLoudly: a payload whose light or heavy vector
// does not match the bundle's dimensions must fail the replay with an
// error naming the decision — not panic in the standardizer, and not
// return a wrong number from the risk predictor.
func TestMalformedVectorsFailLoudly(t *testing.T) {
	set, err := fixture.Small()
	if err != nil {
		t.Fatal(err)
	}
	q := 0.95
	cases := []struct {
		name   string
		cfg    Config
		mangle func(rp *obs.ReplayPayload) bool
	}{
		{"light-short/model-predictions", Config{UseModelPredictions: true}, func(rp *obs.ReplayPayload) bool {
			rp.Light = rp.Light[:len(rp.Light)-1]
			return true
		}},
		{"light-long/risk-override", Config{RiskQuantile: &q}, func(rp *obs.ReplayPayload) bool {
			rp.Light = append(rp.Light, 1)
			return true
		}},
		{"heavy-short/identity", Config{}, func(rp *obs.ReplayPayload) bool {
			for name, vec := range rp.Heavy {
				rp.Heavy[name] = vec[:len(vec)-1]
				return true
			}
			return false
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := recordHeavy(t)
			var bad *obs.Decision
			for i := range ds {
				if rp := ds[i].Replay; rp != nil && tc.mangle(rp) {
					bad = &ds[i]
					break
				}
			}
			cfg := tc.cfg
			cfg.Models = set.Models
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = e.Replay(FromDecisions("mangled", ds))
			if err == nil {
				t.Fatal("replay of a malformed payload succeeded")
			}
			want := []string{"mangled", "stream", "gen", "seq", "dims"}
			for _, w := range want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error %q does not name %q (decision seq %d)", err, w, bad.Seq)
				}
			}
		})
	}
}

// fuzzCorpus trains a micro bundle — five branches, four short videos,
// tiny networks — and returns it with the decisions of one stream
// served from it with the replay payload on, one JSON line each. Every
// fuzz worker repeats this set-up, so it must stay far below a short
// fuzzing budget. The lines drop the recorded heavy vectors (≈20 KB
// each) to keep the inputs short; replay then treats the recorded
// features as never extracted, and TestMalformedVectorsFailLoudly
// covers the vector checks.
func fuzzCorpus(f *testing.F) (*sched.Models, [][]byte) {
	cfg := sched.Config{
		Branches:   fixture.SmallBranches()[:5],
		SnippetLen: 30, SnippetStride: 30,
		Seed: 5, ProjDim: 4, Hidden: []int{4}, Epochs: 20,
		SketchDim: 8, BudgetsMS: []float64{15, 33.3, 90},
	}
	var videos []*vid.Video
	for i := 0; i < 4; i++ {
		videos = append(videos, vid.Generate("fuzztrain", 40+int64(i), vid.GenConfig{Frames: 60}))
	}
	m, err := sched.Train(cfg, sched.Collect(cfg, videos))
	if err != nil {
		f.Fatal(err)
	}
	observer := obs.New()
	srv, err := serve.New(serve.Options{Models: m, Observer: observer, ReplayTrace: true})
	if err != nil {
		f.Fatal(err)
	}
	v := vid.Generate("fuzzserve", 50, vid.GenConfig{Frames: 60})
	if _, err := srv.Submit(serve.StreamConfig{Video: v, SLO: 50, Seed: 1, BaseContention: 0.25}); err != nil {
		f.Fatal(err)
	}
	srv.Drain()
	var lines [][]byte
	for _, d := range observer.Decisions() {
		d.Replay.Heavy = nil
		line, err := json.Marshal(d)
		if err != nil {
			f.Fatal(err)
		}
		lines = append(lines, line)
	}
	return m, lines
}

// FuzzReplayDecision mutates one JSON line of a recorded payload
// decision, decodes it through the obs reader and replays it under the
// identity configuration and under UseModelPredictions: whatever the
// bytes, replay returns an error or a result, never a panic.
func FuzzReplayDecision(f *testing.F) {
	m, lines := fuzzCorpus(f)
	for _, line := range lines {
		f.Add(line)
	}
	var engines []*Engine
	for _, cfg := range []Config{{Models: m}, {Models: m, UseModelPredictions: true}} {
		e, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		engines = append(engines, e)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := obs.ReadDecisions(bytes.NewReader(line))
		if err != nil {
			return
		}
		for _, e := range engines {
			_, _ = e.Replay(FromDecisions("fuzz", got))
		}
	})
}
