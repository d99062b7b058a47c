package serve

import (
	"math"
	"strings"
	"testing"

	"litereconfig/internal/core"
	"litereconfig/internal/fixture"
	"litereconfig/internal/vid"
)

func setup(t *testing.T) *fixture.Setup {
	t.Helper()
	s, err := fixture.Small()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func video(seed int64, frames int) *vid.Video {
	return vid.Generate("serve", seed, vid.GenConfig{Frames: frames})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("missing models must error")
	}
	s := setup(t)
	srv, err := New(Options{Models: s.Models})
	if err != nil {
		t.Fatal(err)
	}
	opts := srv.Options()
	if opts.GPUSlots != DefaultGPUSlots || opts.RoundMS != DefaultRoundMS {
		t.Fatalf("defaults not applied: %+v", opts)
	}
	if opts.MaxOccupancy != 2*float64(opts.GPUSlots) {
		t.Fatalf("default occupancy threshold = %v", opts.MaxOccupancy)
	}
	if _, err := srv.Submit(StreamConfig{SLO: 33}); err == nil {
		t.Fatal("missing video must error")
	}
	if _, err := srv.Submit(StreamConfig{Video: video(1, 10)}); err == nil {
		t.Fatal("missing SLO must error")
	}
	srv.Drain()
}

// run8 submits n identical-shape streams (distinct seeds/videos) and
// drains the board.
func run8(t *testing.T, s *fixture.Setup, n int) *Result {
	t.Helper()
	srv, err := New(Options{Models: s.Models, GPUSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		cfg := StreamConfig{
			Video: video(300+int64(i), 60),
			SLO:   33.3,
			Seed:  100 + int64(i),
		}
		if i%2 == 1 {
			cfg.SLO = 50
			cfg.Policy = core.PolicyMinCost
		}
		if _, err := srv.Submit(cfg); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	return srv.Drain()
}

func TestEightStreamsDeterministic(t *testing.T) {
	s := setup(t)
	a := run8(t, s, 8)
	b := run8(t, s, 8)
	if len(a.Streams) != 8 || len(b.Streams) != 8 {
		t.Fatalf("streams = %d / %d, want 8", len(a.Streams), len(b.Streams))
	}
	for i := range a.Streams {
		x, y := a.Streams[i], b.Streams[i]
		if x.MAP != y.MAP || x.P95MS != y.P95MS || x.MeanMS != y.MeanMS {
			t.Fatalf("stream %d diverged: mAP %v/%v p95 %v/%v mean %v/%v",
				i, x.MAP, y.MAP, x.P95MS, y.P95MS, x.MeanMS, y.MeanMS)
		}
		if x.Switches != y.Switches || x.Frames != y.Frames ||
			x.MeanContention != y.MeanContention || x.Rounds != y.Rounds {
			t.Fatalf("stream %d bookkeeping diverged: %+v vs %+v", i, x, y)
		}
		if x.Frames != 60 {
			t.Fatalf("stream %d frames = %d, want 60", i, x.Frames)
		}
	}
	if a.Rounds != b.Rounds || a.AttainRate != b.AttainRate {
		t.Fatalf("aggregate diverged: %+v vs %+v", a, b)
	}
}

func TestCrossStreamContentionCoupling(t *testing.T) {
	s := setup(t)
	r := run8(t, s, 8)
	if r.MeanContention <= 0 {
		t.Fatal("co-located streams must generate contention for each other")
	}
	for i, st := range r.Streams {
		if st.MeanContention <= 0 {
			t.Fatalf("stream %d saw zero cross-stream contention", i)
		}
		if st.MeanOccupancy <= 0 || st.MeanOccupancy > 1 {
			t.Fatalf("stream %d occupancy out of range: %v", i, st.MeanOccupancy)
		}
	}
	// A lone stream sees no contention at all: the coupling comes only
	// from the other streams, not from a synthetic generator.
	solo := run8(t, s, 1)
	if got := solo.Streams[0].MeanContention; got != 0 {
		t.Fatalf("solo stream contention = %v, want 0", got)
	}
	// And a crowded board contends harder than a pair.
	pair := run8(t, s, 2)
	if r.MeanContention <= pair.MeanContention {
		t.Fatalf("8 streams (%v) should contend harder than 2 (%v)",
			r.MeanContention, pair.MeanContention)
	}
}

func TestClassAggregation(t *testing.T) {
	s := setup(t)
	r := run8(t, s, 4) // alternating SLO 33.3 ("slo33.3ms") and 50 ("slo50ms")
	if len(r.Classes) != 2 {
		t.Fatalf("classes = %+v, want 2", r.Classes)
	}
	if r.Classes[0].Class != "slo33.3ms" || r.Classes[1].Class != "slo50ms" {
		t.Fatalf("class names = %q, %q", r.Classes[0].Class, r.Classes[1].Class)
	}
	for _, c := range r.Classes {
		if c.Streams != 2 || c.Frames != 120 {
			t.Fatalf("class stats wrong: %+v", c)
		}
		if c.Attained != int(c.AttainRate*float64(c.Streams)+0.5) {
			t.Fatalf("attain rate inconsistent: %+v", c)
		}
	}
	if !strings.Contains(r.Summary(), "class slo33.3ms") {
		t.Fatalf("summary missing class rows:\n%s", r.Summary())
	}
	if !strings.Contains(r.Streams[0].Summary(), "slo=") {
		t.Fatalf("stream summary malformed: %s", r.Streams[0].Summary())
	}
}

func TestAdmissionQueuesOverThreshold(t *testing.T) {
	s := setup(t)
	// Threshold of 0.6 with estimates of 0.5: only one stream fits at a
	// time, so later streams must wait in the queue.
	srv, err := New(Options{Models: s.Models, GPUSlots: 2, MaxOccupancy: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	var handles []*Stream
	for i := 0; i < 3; i++ {
		h, err := srv.Submit(StreamConfig{Video: video(400+int64(i), 40), SLO: 50,
			Seed: int64(i) + 1})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if got := srv.QueueDepth(); got != 3 {
		t.Fatalf("queue depth = %d, want 3", got)
	}
	r := srv.Drain()
	if len(r.Streams) != 3 {
		t.Fatalf("streams served = %d, want 3", len(r.Streams))
	}
	if r.Streams[0].WaitRounds != 0 {
		t.Fatalf("first stream should be admitted immediately, waited %d",
			r.Streams[0].WaitRounds)
	}
	if r.Streams[2].WaitRounds == 0 {
		t.Fatal("third stream should have queued behind the occupancy threshold")
	}
	if h := handles[2]; h.Result() == nil || h.Result().ID != 2 {
		t.Fatal("handle must expose the finished stream's result")
	}
}

func TestBackpressureRejectsWhenQueueFull(t *testing.T) {
	s := setup(t)
	srv, err := New(Options{Models: s.Models, QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := srv.Submit(StreamConfig{Video: video(500+int64(i), 20), SLO: 50}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Submit(StreamConfig{Video: video(510, 20), SLO: 50}); err == nil {
		t.Fatal("submission beyond the queue limit must be rejected")
	}
	if srv.Rejected() != 1 {
		t.Fatalf("rejected = %d, want 1", srv.Rejected())
	}
	r := srv.Drain()
	if r.Rejected != 1 || len(r.Streams) != 2 {
		t.Fatalf("report: rejected=%d streams=%d", r.Rejected, len(r.Streams))
	}
}

func TestDrainStopsIntakeAndIsIdempotent(t *testing.T) {
	s := setup(t)
	srv, err := New(Options{Models: s.Models})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(StreamConfig{Video: video(600, 20), SLO: 50}); err != nil {
		t.Fatal(err)
	}
	r1 := srv.Drain()
	if _, err := srv.Submit(StreamConfig{Video: video(601, 20), SLO: 50}); err == nil {
		t.Fatal("submit after drain must error")
	}
	r2 := srv.Drain()
	if r1 != r2 {
		t.Fatal("drain must be idempotent")
	}
	if len(r1.Streams) != 1 || r1.Streams[0].Frames != 20 {
		t.Fatalf("drain report wrong: %+v", r1)
	}
	if r1.Streams[0].Raw == nil || r1.Streams[0].Raw.Breakdown == nil {
		t.Fatal("raw result with breakdown must be attached")
	}
}

// TestRetiredStreamMAPMatchesResult checks the mAP the worker computes
// when a stream's run finishes against the completed result's own mAP,
// recomputed after the barrier finalized the stream, for every stream
// of a drained board — and that the worker-side value was the one used.
func TestRetiredStreamMAPMatchesResult(t *testing.T) {
	s := setup(t)
	srv, err := New(Options{Models: s.Models, GPUSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	var handles []*Stream
	for i := 0; i < 6; i++ {
		h, err := srv.Submit(StreamConfig{Video: video(400+int64(i), 50), SLO: 33.3 + float64(i%3)*16.7, Seed: 7 + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	res := srv.Drain()
	if len(res.Streams) != len(handles) {
		t.Fatalf("%d stream rows, want %d", len(res.Streams), len(handles))
	}
	for i, r := range res.Streams {
		if !handles[i].st.hasFinalMAP {
			t.Errorf("stream %d: report mAP was not computed by the worker", i)
		}
		if want := r.Raw.MAP(); math.Float64bits(r.MAP) != math.Float64bits(want) {
			t.Errorf("stream %d: reported mAP %v, result recomputes %v", i, r.MAP, want)
		}
	}
}
