package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"testing"

	"litereconfig/internal/adapt"
	"litereconfig/internal/feat"
	"litereconfig/internal/obs"
	"litereconfig/internal/sched"
)

// drainAdapted serves three fixed-seed streams with online adaptation
// on and returns the drain report plus the run's observer.
func drainAdapted(t *testing.T, cfg *adapt.Config) (*Result, *obs.Observer, *Server) {
	t.Helper()
	s := setup(t)
	o := obs.New()
	srv, err := New(Options{Models: s.Models, GPUSlots: 2, Adapt: cfg, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.Submit(StreamConfig{
			Video: video(500+int64(i), 60),
			SLO:   50,
			Seed:  40 + int64(i),
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	return srv.Drain(), o, srv
}

// TestServeAdaptationWiring checks the per-stream adapter plumbing: the
// server creates a board registry, every stream runs its own adaptation
// loop on its cloned models, and the report carries the adapt columns.
// Warm-up is shortened so even a stream that settles on a large-GoF
// branch (few decisions across its 60 frames) refits at least once.
func TestServeAdaptationWiring(t *testing.T) {
	res, _, srv := drainAdapted(t, &adapt.Config{WarmupSamples: 1})
	if srv.AdaptRegistry() == nil {
		t.Fatal("adapted server has no registry")
	}
	refits := 0
	for _, row := range res.Streams {
		if row.ModelVersion == "" {
			t.Errorf("stream %s has no model version", row.Name)
		}
		if row.Refits == 0 {
			t.Errorf("stream %s never refit its challenger", row.Name)
		}
		refits += row.Refits
	}
	if res.Refits != refits {
		t.Errorf("aggregate refits = %d, rows sum to %d", res.Refits, refits)
	}
	if res.Promotions != srv.AdaptRegistry().Promotions() {
		t.Errorf("aggregate promotions = %d, registry says %d",
			res.Promotions, srv.AdaptRegistry().Promotions())
	}
}

// TestServeUnadaptedReportUnchanged asserts the off state: no registry,
// no adapt columns, no adapt_* fields in the decision trace.
func TestServeUnadaptedReportUnchanged(t *testing.T) {
	s := setup(t)
	o := obs.New()
	srv, err := New(Options{Models: s.Models, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(StreamConfig{Video: video(501, 40), SLO: 50, Seed: 41}); err != nil {
		t.Fatal(err)
	}
	res := srv.Drain()
	if srv.AdaptRegistry() != nil {
		t.Fatal("unadapted server grew a registry")
	}
	if res.Streams[0].ModelVersion != "" || res.Refits != 0 {
		t.Fatalf("unadapted report carries adapt stats: %+v", res.Streams[0])
	}
	var buf bytes.Buffer
	if err := res.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("adapt_")) {
		t.Error("unadapted trace contains adapt_* fields")
	}
}

// TestServeAdaptTraceDeterministic runs the same adapted board twice:
// promotions only land at GoF barriers and coupling only changes at
// round barriers, so fixed seeds must give byte-identical traces.
func TestServeAdaptTraceDeterministic(t *testing.T) {
	var traces [2]bytes.Buffer
	for i := range traces {
		res, _, _ := drainAdapted(t, &adapt.Config{})
		if err := res.WriteTrace(&traces[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
		t.Fatal("adapted drains with identical seeds wrote different traces")
	}
	if !bytes.Contains(traces[0].Bytes(), []byte(`"adapt_version"`)) {
		t.Error("adapted trace carries no adapt_version fields")
	}
}

// bundleDigest hashes a gob encoding of m that is independent of map
// iteration order: the struct without its three per-kind maps, then
// each kind's entries in feat.HeavyKinds order.
func bundleDigest(t *testing.T, m *sched.Models) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	enc := gob.NewEncoder(h)
	c := *m
	c.ContentNets, c.HeavyNorm, c.Sketch = nil, nil, nil
	if err := enc.Encode(&c); err != nil {
		t.Fatal(err)
	}
	for _, k := range feat.HeavyKinds() {
		for _, v := range []any{m.ContentNets[k], m.HeavyNorm[k], m.Sketch[k]} {
			if err := enc.Encode(v); err != nil {
				t.Fatalf("kind %v: %v", k, err)
			}
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// Every stream of a board predicts from a Clone that shares the base
// bundle's latency-model state; only each adapter's challenger owns a
// copy. Several streams on one board refit, promote and demote
// concurrently (run it under -race), and afterwards the base bundle is
// byte-identical to what it was before the run.
func TestSharedBaseModelsSurviveAdaptation(t *testing.T) {
	s := setup(t)
	var buf bytes.Buffer
	if err := s.Models.Save(&buf); err != nil {
		t.Fatal(err)
	}
	base, err := sched.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A populated bias table, so an in-place bias refit would show.
	base.LatBiasMS = make([]float64, len(base.Branches))
	for i := range base.LatBiasMS {
		base.LatBiasMS[i] = 0.125 * float64(i%4)
	}
	before := bundleDigest(t, base)

	// A hair-trigger rollout: promote on one window 2% better, and roll
	// back as soon as the champion's error exceeds half its
	// promotion-time error.
	cfg := &adapt.Config{
		WarmupSamples: 1, MinSamples: 2, PromoteWindow: 1, Margin: 0.02,
		DemoteWindow: 1, DemoteMargin: -0.5,
	}
	srv, err := New(Options{Models: base, GPUSlots: 4, Adapt: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := srv.Submit(StreamConfig{
			Video: video(520+int64(i), 90), SLO: 33.3, Seed: 60 + int64(i),
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	res := srv.Drain()
	t.Logf("promotions %d, demotions %d, refits %d", res.Promotions, res.Demotions, res.Refits)
	if res.Promotions == 0 || res.Demotions == 0 {
		t.Fatalf("promotions %d, demotions %d: the run must both promote and demote",
			res.Promotions, res.Demotions)
	}
	if bundleDigest(t, base) != before {
		t.Fatal("serving adapted streams changed the shared base bundle")
	}
}
