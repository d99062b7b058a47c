package sched

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"litereconfig/internal/feat"
	"litereconfig/internal/mbek"
	"litereconfig/internal/track"
	"litereconfig/internal/vid"
)

// tinyConfig keeps tests fast: a small branch space and small nets.
func tinyConfig() Config {
	var branches []mbek.Branch
	for _, shape := range []int{224, 576} {
		for _, np := range []int{1, 100} {
			branches = append(branches, mbek.Branch{Shape: shape, NProp: np,
				GoF: 1, Tracker: track.KCF, DS: 1})
			for _, gof := range []int{4, 20} {
				branches = append(branches, mbek.Branch{Shape: shape, NProp: np,
					Tracker: track.KCF, GoF: gof, DS: 1})
			}
		}
	}
	return Config{
		Branches: branches, SnippetLen: 40, SnippetStride: 40,
		Seed: 3, ProjDim: 8, Hidden: []int{16}, Epochs: 800,
		BudgetsMS: []float64{10, 30, 80},
	}
}

func trainVideos(n int, frames int) []*vid.Video {
	vs := make([]*vid.Video, n)
	for i := range vs {
		vs[i] = vid.Generate("t", int64(i)+50, vid.GenConfig{Frames: frames})
	}
	return vs
}

// shared fixture: collecting and training once keeps the suite fast.
var (
	fixtureOnce sync.Once
	fixtureDS   *Dataset
	fixtureM    *Models
	fixtureErr  error
)

func fixture(t *testing.T) (*Dataset, *Models) {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := tinyConfig()
		fixtureDS = Collect(cfg, trainVideos(10, 80))
		fixtureM, fixtureErr = Train(cfg, fixtureDS)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureDS, fixtureM
}

func TestCollectShapes(t *testing.T) {
	ds, _ := fixture(t)
	if len(ds.Samples) != 20 { // 10 videos x 2 snippets (80/40)
		t.Fatalf("samples = %d, want 20", len(ds.Samples))
	}
	nb := len(tinyConfig().Branches)
	for _, s := range ds.Samples {
		if len(s.MAP) != nb || len(s.DetMS) != nb || len(s.TrkMS) != nb {
			t.Fatalf("per-branch label lengths wrong")
		}
		if len(s.Light) != 4 {
			t.Fatalf("light dim = %d", len(s.Light))
		}
		for _, k := range feat.HeavyKinds() {
			if len(s.Heavy[k]) != feat.SpecOf(k).Dim {
				t.Fatalf("heavy %v dim wrong", k)
			}
		}
		for bi := range s.MAP {
			if s.MAP[bi] < 0 || s.MAP[bi] > 1 {
				t.Fatalf("mAP label out of range: %v", s.MAP[bi])
			}
			if s.DetMS[bi] <= 0 {
				t.Fatalf("detector cost label missing")
			}
		}
	}
}

func TestLabelsShowAccuracyLatencyTradeoff(t *testing.T) {
	ds, _ := fixture(t)
	cfg := tinyConfig()
	// Identify the heaviest and lightest branch.
	var heavy, light int
	for i, b := range cfg.Branches {
		if b.Shape == 576 && b.NProp == 100 && b.GoF == 1 {
			heavy = i
		}
		if b.Shape == 224 && b.NProp == 1 && b.GoF == 20 {
			light = i
		}
	}
	var mapH, mapL, msH, msL float64
	for _, s := range ds.Samples {
		mapH += s.MAP[heavy]
		mapL += s.MAP[light]
		msH += s.DetMS[heavy] + s.TrkMS[heavy]
		msL += s.DetMS[light] + s.TrkMS[light]
	}
	if mapH <= mapL {
		t.Fatalf("heavy branch mAP %.3f should beat light %.3f", mapH, mapL)
	}
	if msH <= msL {
		t.Fatalf("heavy branch cost %.1f should exceed light %.1f", msH, msL)
	}
}

func TestTrainProducesAllModels(t *testing.T) {
	_, m := fixture(t)
	nb := len(tinyConfig().Branches)
	if m.LightNet == nil || len(m.ContentNets) != 5 {
		t.Fatal("missing accuracy models")
	}
	if len(m.LatDet) != nb || len(m.LatTrk) != nb {
		t.Fatal("missing latency models")
	}
	if m.Ben == nil || len(m.Ben.Gain) != 3 {
		t.Fatal("missing benefit table")
	}
}

func TestAccuracyPredictorsUseful(t *testing.T) {
	// On held-out videos, the light predictor's argmax branch should be
	// much better than a random branch, and content predictors should not
	// be worse than light on average (true accuracy of selected branch).
	_, m := fixture(t)
	cfg := tinyConfig()
	held := Collect(cfg, []*vid.Video{
		vid.Generate("h1", 901, vid.GenConfig{Frames: 80}),
		vid.Generate("h2", 902, vid.GenConfig{Frames: 80}),
		vid.Generate("h3", 903, vid.GenConfig{Frames: 80}),
	})
	var lightPick, meanAll, bestPick float64
	n := 0
	for _, s := range held.Samples {
		pred := m.PredictAccuracyLight(s.Light)
		pick := argmax(pred)
		lightPick += s.MAP[pick]
		best := 0
		var sum float64
		for bi, v := range s.MAP {
			sum += v
			if v > s.MAP[best] {
				best = bi
			}
		}
		bestPick += s.MAP[best]
		meanAll += sum / float64(len(s.MAP))
		n++
	}
	lightPick /= float64(n)
	meanAll /= float64(n)
	bestPick /= float64(n)
	if lightPick <= meanAll {
		t.Fatalf("light predictor pick (%.3f) no better than random branch (%.3f)",
			lightPick, meanAll)
	}
	t.Logf("light pick %.3f, random %.3f, oracle %.3f", lightPick, meanAll, bestPick)
}

func argmax(v []float64) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

func TestLatencyPredictionAccuracy(t *testing.T) {
	ds, m := fixture(t)
	// Relative error of predicted kernel latency within 25% on average.
	var relErr float64
	n := 0
	for _, s := range ds.Samples {
		for bi := range m.Branches {
			det, trk := m.PredictLatency(bi, s.Light)
			pred := det + trk
			truth := s.DetMS[bi] + s.TrkMS[bi]
			relErr += math.Abs(pred-truth) / truth
			n++
		}
	}
	relErr /= float64(n)
	if relErr > 0.25 {
		t.Fatalf("mean relative latency error %.3f, want <= 0.25", relErr)
	}
}

func TestPredictLatencyNonNegative(t *testing.T) {
	_, m := fixture(t)
	weird := []float64{0, 0, 0, 0}
	for bi := range m.Branches {
		det, trk := m.PredictLatency(bi, weird)
		if det < 0 || trk < 0 {
			t.Fatalf("negative latency prediction at branch %d", bi)
		}
	}
}

func TestBenTable(t *testing.T) {
	_, m := fixture(t)
	// Conservative lookup: a budget between two buckets returns the
	// minimum of the two.
	synthetic := &BenTable{
		BudgetsMS: []float64{10, 30, 80},
		Gain: [][]float64{
			{0, 0, 0.05, 0, 0, 0},
			{0, 0, -0.02, 0, 0, 0},
			{0, 0, 0.01, 0, 0, 0},
		},
	}
	if g := synthetic.Benefit(feat.HOG, 20); g != -0.02 {
		t.Fatalf("between-bucket lookup = %v, want min(-0.02, 0.05) = -0.02", g)
	}
	if g := synthetic.Benefit(feat.HOG, 30); g != -0.02 {
		t.Fatalf("exact-bucket lookup = %v, want -0.02", g)
	}
	if g := synthetic.Benefit(feat.HOG, 200); g != 0.01 {
		t.Fatalf("beyond-range lookup = %v, want last bucket 0.01", g)
	}
	if g := synthetic.Benefit(feat.HOG, 5); g != 0.05 {
		t.Fatalf("below-range lookup = %v, want first bucket 0.05", g)
	}
	// Set benefit: empty set is 0; singleton equals Benefit; larger sets
	// are at least the best singleton.
	if m.Ben.SetBenefit(nil, 30) != 0 {
		t.Fatal("empty set benefit should be 0")
	}
	s1 := m.Ben.SetBenefit([]feat.Kind{feat.HoC}, 30)
	if math.Abs(s1-m.Ben.Benefit(feat.HoC, 30)) > 1e-12 {
		t.Fatal("singleton set benefit mismatch")
	}
	s2 := m.Ben.SetBenefit([]feat.Kind{feat.HoC, feat.HOG}, 30)
	best := math.Max(m.Ben.Benefit(feat.HoC, 30), m.Ben.Benefit(feat.HOG, 30))
	if s2 < best-1e-12 {
		t.Fatal("set benefit below best singleton")
	}
	// Empty table returns 0.
	var empty BenTable
	if empty.Benefit(feat.HoC, 10) != 0 {
		t.Fatal("empty table should return 0")
	}
}

func TestPredictAccuracySetEnsemble(t *testing.T) {
	ds, m := fixture(t)
	s := ds.Samples[0]
	a := m.PredictAccuracyContent(feat.HoC, s.Light, s.Heavy[feat.HoC])
	b := m.PredictAccuracyContent(feat.CPoP, s.Light, s.Heavy[feat.CPoP])
	ens := m.PredictAccuracySet([]feat.Kind{feat.HoC, feat.CPoP}, s.Light, s.Heavy)
	for i := range ens {
		want := (a[i] + b[i]) / 2
		if math.Abs(ens[i]-want) > 1e-9 {
			t.Fatalf("ensemble[%d] = %v, want %v", i, ens[i], want)
		}
	}
	// Empty set falls back to the light model.
	l := m.PredictAccuracyLight(s.Light)
	e := m.PredictAccuracySet(nil, s.Light, s.Heavy)
	for i := range l {
		if l[i] != e[i] {
			t.Fatal("empty set should equal light prediction")
		}
	}
}

func TestStandardizer(t *testing.T) {
	rows := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s := FitStandardizer(rows)
	if math.Abs(s.Mean[0]-3) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean)
	}
	// Constant column gets std 1, avoiding division blowup.
	if s.Std[1] != 1 {
		t.Fatalf("constant column std = %v", s.Std[1])
	}
	out := s.Apply([]float64{5, 10})
	if math.Abs(out[1]) > 1e-12 {
		t.Fatalf("constant column should standardize to 0, got %v", out[1])
	}
	if FitStandardizer(nil).Mean != nil {
		t.Fatal("empty standardizer should be empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch should panic")
		}
	}()
	s.Apply([]float64{1})
}

func TestTrainEmptyDataset(t *testing.T) {
	if _, err := Train(tinyConfig(), &Dataset{}); err == nil {
		t.Fatal("empty dataset should error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds, m := fixture(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := ds.Samples[0]
	a := m.PredictAccuracyLight(s.Light)
	b := m2.PredictAccuracyLight(s.Light)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("light prediction differs after round trip at %d", i)
		}
	}
	ca := m.PredictAccuracyContent(feat.MobileNetV2, s.Light, s.Heavy[feat.MobileNetV2])
	cb := m2.PredictAccuracyContent(feat.MobileNetV2, s.Light, s.Heavy[feat.MobileNetV2])
	for i := range ca {
		if math.Abs(ca[i]-cb[i]) > 1e-12 {
			t.Fatalf("content prediction differs after round trip at %d", i)
		}
	}
	d1, t1 := m.PredictLatency(0, s.Light)
	d2, t2 := m2.PredictLatency(0, s.Light)
	if d1 != d2 || t1 != t2 {
		t.Fatal("latency prediction differs after round trip")
	}
}

func TestSaveLoadRoundTripAfterRefit(t *testing.T) {
	// Mutate a trained bundle the way the online adapter does — RLS-moved
	// latency coefficients, per-branch bias, accuracy recalibration, the
	// global CPU-side multiplier — and check a gob round trip preserves
	// every prediction bit for bit. This is what makes a promoted
	// challenger snapshot in the registry equivalent to the live champion.
	ds, orig := fixture(t)
	m, err := orig.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for bi, lr := range m.LatDet {
		for i := range lr.Coef {
			lr.Coef[i] += 0.01 * float64(bi+1) * float64(i+1)
		}
		lr.Intercept += 0.5 * float64(bi)
	}
	for bi, lr := range m.LatTrk {
		lr.Intercept -= 0.25 * float64(bi)
	}
	m.LatBiasMS = make([]float64, len(m.Branches))
	for i := range m.LatBiasMS {
		m.LatBiasMS[i] = 0.125 * float64(i)
	}
	m.AccScale = 0.9375
	m.AccBias = 0.015625
	m.LatCPUAdj = 1.8125

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := ds.Samples[0]
	a, b := m.PredictAccuracyLight(s.Light), m2.PredictAccuracyLight(s.Light)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("recalibrated accuracy differs after round trip at branch %d: %v vs %v",
				i, a[i], b[i])
		}
	}
	for bi := range m.Branches {
		d1, t1 := m.PredictLatency(bi, s.Light)
		d2, t2 := m2.PredictLatency(bi, s.Light)
		if d1 != d2 || t1 != t2 {
			t.Fatalf("refit latency differs after round trip at branch %d", bi)
		}
		if m.LatencyBiasMS(bi) != m2.LatencyBiasMS(bi) {
			t.Fatalf("latency bias differs after round trip at branch %d", bi)
		}
	}
	if m.CPUAdjFactor() != m2.CPUAdjFactor() {
		t.Fatalf("CPU adj factor differs after round trip: %v vs %v",
			m.CPUAdjFactor(), m2.CPUAdjFactor())
	}
	// The refit state never leaks back into the bundle it was cloned from.
	if orig.AccScale != 0 || orig.LatCPUAdj != 0 || len(orig.LatBiasMS) != 0 {
		t.Fatal("refitting the clone mutated the original bundle")
	}
}

// predictAll flattens every predictor's output over the first few
// samples: light and content-aware accuracy (each heavy kind alone and
// the full ensemble), per-branch latency, the q=0.95 quantile, the
// failure probability and the online calibration terms the scheduler
// adds on top (per-branch bias, CPU-side multiplier).
func predictAll(m *Models, samples []Sample) []float64 {
	if len(samples) > 4 {
		samples = samples[:4]
	}
	var out []float64
	for _, s := range samples {
		out = append(out, m.PredictAccuracyLight(s.Light)...)
		for _, k := range feat.HeavyKinds() {
			out = append(out, m.PredictAccuracySet([]feat.Kind{k}, s.Light, s.Heavy)...)
		}
		out = append(out, m.PredictAccuracySet(feat.HeavyKinds(), s.Light, s.Heavy)...)
		for bi := range m.Branches {
			det, trk := m.PredictLatency(bi, s.Light)
			out = append(out, det, trk, m.PredictQuantile(bi, s.Light, 0.95),
				m.PredictFailProb(bi, s.Light), m.LatencyBiasMS(bi))
		}
	}
	return append(out, m.CPUAdjFactor())
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d predictions, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: prediction %d = %v, want %v (bit-identical)", what, i, got[i], want[i])
		}
	}
}

// adaptedCopy returns a gob copy of the fixture carrying non-zero
// adaptation state, so a clone of it starts from populated LatBiasMS and
// LatVar slices that an in-place write would corrupt if shared.
func adaptedCopy(t *testing.T, m *Models) *Models {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	a, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a.LatBiasMS = make([]float64, len(a.Branches))
	for i := range a.LatBiasMS {
		a.LatBiasMS[i] = 0.25 * float64(i%3)
	}
	a.AccScale, a.AccBias, a.LatCPUAdj = 1.0625, -0.03125, 1.25
	return a
}

func TestCloneMatchesGobCopy(t *testing.T) {
	ds, orig := fixture(t)
	for _, m := range []*Models{orig, adaptedCopy(t, orig)} {
		c, err := m.Clone()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		g, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		want := predictAll(g, ds.Samples)
		sameBits(t, "clone vs gob copy", predictAll(c, ds.Samples), want)
		sameBits(t, "original vs gob copy", predictAll(m, ds.Samples), want)
	}
}

// The adapter refits a RefitClone in place; none of its writes may
// reach the models it was copied from, nor a plain Clone of them.
func TestCloneIsolatesAdapterState(t *testing.T) {
	ds, orig := fixture(t)
	parent := adaptedCopy(t, orig)
	before := predictAll(parent, ds.Samples)
	sibling, err := parent.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c := parent.RefitClone()
	// Every write the online adapter makes, in place where the adapter
	// writes in place (RLS coefficients, the bias and variance slots).
	for bi, lr := range c.LatDet {
		for i := range lr.Coef {
			lr.Coef[i] += 0.01 * float64(bi+1)
		}
		lr.Intercept += 0.5
	}
	for _, lr := range c.LatTrk {
		for i := range lr.Coef {
			lr.Coef[i] -= 0.02
		}
		lr.Intercept -= 0.25
	}
	for bi := range c.LatBiasMS {
		c.LatBiasMS[bi] += 1.5
	}
	for bi := range c.LatVar {
		c.LatVar[bi].Forget(0.995)
		c.LatVar[bi].Add(0.4)
	}
	c.LatCPUAdj, c.AccScale, c.AccBias = 1.75, 0.8125, 0.0625

	sameBits(t, "parent after mutating its clone", predictAll(parent, ds.Samples), before)
	sameBits(t, "sibling clone after mutating the refit clone", predictAll(sibling, ds.Samples), before)
	if got := predictAll(c, ds.Samples); math.Float64bits(got[0]) == math.Float64bits(before[0]) {
		t.Fatal("mutating the clone did not change its own predictions")
	}
}

func TestClonesPredictConcurrently(t *testing.T) {
	ds, orig := fixture(t)
	bundle := adaptedCopy(t, orig)
	serial, err := bundle.Clone()
	if err != nil {
		t.Fatal(err)
	}
	want := predictAll(serial, ds.Samples)

	const workers = 8
	got := make([][]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := bundle.Clone()
			if err != nil {
				errs[w] = err
				return
			}
			for rep := 0; rep < 3; rep++ {
				got[w] = predictAll(c, ds.Samples)
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		sameBits(t, "concurrent clone", got[w], want)
	}
}

func TestSketchMatchesPlainLoop(t *testing.T) {
	ds, m := fixture(t)
	for _, k := range feat.HeavyKinds() {
		for _, s := range ds.Samples[:3] {
			z := m.HeavyNorm[k].Apply(s.Heavy[k])
			proj := m.Sketch[k]
			want := make([]float64, len(proj[0]))
			for i, zi := range z {
				if zi == 0 {
					continue
				}
				for j := range want {
					want[j] += zi * proj[i][j]
				}
			}
			sameBits(t, "sketch "+k.String(), m.sketchApplyInto(k, s.Heavy[k]), want)
		}
	}
}

func TestSwitchMatrix(t *testing.T) {
	labels, costs := SwitchMatrix(mbek.DefaultBranches())
	if len(labels) != 16 { // 4 shapes x 4 nprops
		t.Fatalf("labels = %d, want 16", len(labels))
	}
	for i := range costs {
		if costs[i][i] != 0 {
			t.Fatalf("diagonal not zero at %d", i)
		}
		for j := range costs[i] {
			if costs[i][j] < 0 || costs[i][j] > 12 {
				t.Fatalf("cost out of band: %v", costs[i][j])
			}
		}
	}
	if labels[0] != "(224,1)" {
		t.Fatalf("first label = %q", labels[0])
	}
}

func TestSnippetsOfShortVideo(t *testing.T) {
	v := vid.Generate("s", 1, vid.GenConfig{Frames: 20})
	ss := snippetsOf(v, 100, 50)
	if len(ss) != 1 || ss[0].N != 20 {
		t.Fatalf("short video snippets = %+v", ss)
	}
}

func TestLoadCorruptedModels(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("corrupted stream should error")
	}
	if _, err := LoadFile("/nonexistent/path/models.gob"); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestSaveFileRoundTrip(t *testing.T) {
	_, m := fixture(t)
	path := t.TempDir() + "/models.gob"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Branches) != len(m.Branches) {
		t.Fatal("branches lost in file round trip")
	}
	if m2.FeatureSeed != m.FeatureSeed {
		t.Fatal("feature seed lost in file round trip")
	}
}

// The risk-model state — per-branch latency variance accumulators and
// tracker-failure nets — must survive a gob round trip bit for bit, and
// a pre-risk bundle (zero-value risk fields) must load as "no variance
// info": quantile factors collapse to 1 and failure probabilities to 0,
// so old bundles keep behaving exactly as before.
func TestRiskModelsGobRoundTrip(t *testing.T) {
	ds, m := fixture(t)
	if len(m.LatVar) == 0 {
		t.Fatal("trained fixture has no latency variance accumulators")
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	light := ds.Samples[0].Light
	for bi := range m.Branches {
		if a, b := m.LatLogStd(bi), m2.LatLogStd(bi); a != b {
			t.Fatalf("branch %d: LatLogStd %v != %v after round trip", bi, a, b)
		}
		for _, q := range []float64{0.9, 0.95, 0.99} {
			a := m.PredictQuantile(bi, light, q)
			b := m2.PredictQuantile(bi, light, q)
			if a != b {
				t.Fatalf("branch %d q=%v: PredictQuantile %v != %v after round trip", bi, q, a, b)
			}
		}
		if a, b := m.PredictFailProb(bi, light), m2.PredictFailProb(bi, light); a != b {
			t.Fatalf("branch %d: PredictFailProb %v != %v after round trip", bi, a, b)
		}
	}

	// Pre-risk bundle shape: strip the risk state and round-trip — the
	// degraded predictions must be the exact point estimates.
	m2.LatVar = nil
	m2.FailNets = nil
	var buf2 bytes.Buffer
	if err := m2.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	m3, err := Load(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	for bi := range m3.Branches {
		if got := m3.QuantileFactor(bi, 1.6448536269514722); got != 1 {
			t.Fatalf("branch %d: quantile factor without variance info = %v, want 1", bi, got)
		}
		if got := m3.PredictFailProb(bi, light); got != 0 {
			t.Fatalf("branch %d: fail prob without a net = %v, want 0", bi, got)
		}
		det, trk := m3.PredictLatency(bi, light)
		if got, want := m3.PredictQuantile(bi, light, 0.95), det+trk; got != want {
			t.Fatalf("branch %d: degraded PredictQuantile %v != point estimate %v", bi, got, want)
		}
	}
}

// TestLoadMalformedModels feeds Load bundles that decode but cannot
// predict — a missing network, a layer whose weights or biases do not
// fit its shape, layers that do not chain — and a truncated stream:
// each must be an error, not a panic.
func TestLoadMalformedModels(t *testing.T) {
	_, m := fixture(t)
	var good bytes.Buffer
	if err := m.Save(&good); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, want string
		spoil      func(*Models)
	}{
		{"no light network", "light network: missing network", func(m *Models) { m.LightNet = nil }},
		{"no layers", "light network: missing network", func(m *Models) { m.LightNet.Layers = nil }},
		{"short weights", "light network: layer 1: ", func(m *Models) {
			l := m.LightNet.Layers[1]
			l.W = l.W[:len(l.W)-1]
		}},
		{"long biases", "light network: layer 0: ", func(m *Models) {
			l := m.LightNet.Layers[0]
			l.B = append(l.B, 0)
		}},
		{"zero width", "light network: layer 0: layer shape", func(m *Models) {
			l := m.LightNet.Layers[0]
			l.In, l.W = 0, nil
		}},
		{"unchained layers", "light network: layer 1 takes", func(m *Models) {
			l := m.LightNet.Layers[1]
			l.In--
			l.W = l.W[:l.In*l.Out]
		}},
		{"no projection", "content tower: missing layer", func(m *Models) {
			m.ContentNets[feat.MobileNetV2].ProjB = nil
		}},
		{"no trunk", "trunk: missing network", func(m *Models) {
			m.ContentNets[feat.MobileNetV2].Trunk = nil
		}},
		{"unchained trunk", "trunk takes", func(m *Models) {
			p := m.ContentNets[feat.MobileNetV2].ProjA
			p.Out--
			p.W, p.B = p.W[:p.In*p.Out], p.B[:p.Out]
		}},
	}
	for _, c := range cases {
		bad, err := Load(bytes.NewReader(good.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		c.spoil(bad)
		var buf bytes.Buffer
		if err := bad.Save(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Load error %v, want one containing %q", c.name, err, c.want)
		}
	}
	for _, n := range []int{0, 1, good.Len() / 2, good.Len() - 1} {
		if _, err := Load(bytes.NewReader(good.Bytes()[:n])); err == nil {
			t.Fatalf("bundle truncated to %d of %d bytes loaded without error", n, good.Len())
		}
	}
}
