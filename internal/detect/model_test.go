package detect

import (
	"math"
	"math/rand"
	"testing"

	"litereconfig/internal/metric"
	"litereconfig/internal/vid"
)

func testVideo(seed int64) *vid.Video {
	return vid.Generate("v", seed, vid.GenConfig{Frames: 40})
}

func TestDetectDeterministic(t *testing.T) {
	v := testVideo(1)
	cfg := Config{Shape: 448, NProp: 50}
	a := FasterRCNN.Detect(v, v.Frames[5], cfg)
	b := FasterRCNN.Detect(v, v.Frames[5], cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("detection %d differs", i)
		}
	}
	// Different configs give different outcomes.
	c := FasterRCNN.Detect(v, v.Frames[5], Config{Shape: 224, NProp: 1})
	if len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
			}
		}
		if same {
			t.Fatal("different configs gave identical detections")
		}
	}
}

// mAPOf evaluates a model/config over several videos.
func mAPOf(t *testing.T, m Model, cfg Config, seeds ...int64) float64 {
	t.Helper()
	var frames []metric.FrameResult
	for _, s := range seeds {
		v := testVideo(s)
		for _, f := range v.Frames {
			frames = append(frames, metric.FrameResult{
				Truth: f.Objects,
				Dets:  m.Detect(v, f, cfg),
			})
		}
	}
	return metric.MeanAP(frames, metric.DefaultIoU)
}

var calibSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

func TestHeavierConfigsMoreAccurate(t *testing.T) {
	low := mAPOf(t, FasterRCNN, Config{Shape: 224, NProp: 1}, calibSeeds...)
	mid := mAPOf(t, FasterRCNN, Config{Shape: 448, NProp: 20}, calibSeeds...)
	high := mAPOf(t, FasterRCNN, Config{Shape: 576, NProp: 100}, calibSeeds...)
	if !(low < mid && mid < high) {
		t.Fatalf("accuracy not monotone in config weight: %.3f %.3f %.3f", low, mid, high)
	}
	if high < 0.45 {
		t.Fatalf("full-config Faster R-CNN mAP = %.3f, want >= 0.45", high)
	}
	if low > 0.45 {
		t.Fatalf("minimal-config mAP = %.3f suspiciously high", low)
	}
}

func TestCostMonotoneInConfig(t *testing.T) {
	m := FasterRCNN
	if m.CostMS(Config{Shape: 224, NProp: 1}) >= m.CostMS(Config{Shape: 576, NProp: 1}) {
		t.Fatal("cost not increasing in shape")
	}
	if m.CostMS(Config{Shape: 448, NProp: 1}) >= m.CostMS(Config{Shape: 448, NProp: 100}) {
		t.Fatal("cost not increasing in nprop")
	}
	// Single-stage models ignore nprop.
	if YOLOv3.CostMS(Config{Shape: 448, NProp: 1}) != YOLOv3.CostMS(Config{Shape: 448, NProp: 100}) {
		t.Fatal("YOLO cost should ignore nprop")
	}
}

func TestModelOrderingOnAccuracy(t *testing.T) {
	cfg := Config{Shape: 576, NProp: 100}
	frcnn := mAPOf(t, FasterRCNN, cfg, calibSeeds...)
	ssd := mAPOf(t, SSDMnasFPN, cfg, calibSeeds...)
	selsa := mAPOf(t, SELSA, cfg, calibSeeds...)
	effd0 := mAPOf(t, EfficientDetD0, cfg, calibSeeds...)
	if ssd >= frcnn {
		t.Fatalf("SSD (%.3f) should trail Faster R-CNN (%.3f)", ssd, frcnn)
	}
	if selsa <= frcnn {
		t.Fatalf("SELSA (%.3f) should beat Faster R-CNN (%.3f)", selsa, frcnn)
	}
	if selsa < 0.70 {
		t.Fatalf("SELSA mAP = %.3f, want >= 0.70 (paper band ~0.77)", selsa)
	}
	// EfficientDet-D0 sits between SSD and the video references.
	if effd0 <= ssd {
		t.Fatalf("EfficientDet-D0 (%.3f) should beat SSD (%.3f)", effd0, ssd)
	}
	d3 := mAPOf(t, EfficientDetD3, cfg, calibSeeds...)
	if d3 <= effd0 {
		t.Fatalf("EfficientDet-D3 (%.3f) should beat D0 (%.3f)", d3, effd0)
	}
}

func TestReferenceCostsMatchTable3(t *testing.T) {
	cfg := Config{Shape: 576, NProp: 100}
	if SELSA.CostMS(cfg) != 2112 {
		t.Fatalf("SELSA cost = %v", SELSA.CostMS(cfg))
	}
	if MEGA.CostMS(cfg) != 861 {
		t.Fatalf("MEGA cost = %v", MEGA.CostMS(cfg))
	}
	if REPP.CostMS(cfg) != 565 {
		t.Fatalf("REPP cost = %v", REPP.CostMS(cfg))
	}
	if EfficientDetD0.CostMS(cfg) != 138 || EfficientDetD3.CostMS(cfg) != 796 {
		t.Fatal("EfficientDet costs wrong")
	}
}

func TestAdaScaleCostBand(t *testing.T) {
	// Paper Table 3: AdaScale at scale 240 runs at 227.9 ms, scale 600
	// around 1049 ms.
	c240 := AdaScaleRCNN.CostMS(Config{Shape: 240})
	c600 := AdaScaleRCNN.CostMS(Config{Shape: 600})
	if c240 < 180 || c240 > 280 {
		t.Fatalf("AdaScale@240 cost = %v, want ~228", c240)
	}
	if c600 < 900 || c600 > 1200 {
		t.Fatalf("AdaScale@600 cost = %v, want ~1050", c600)
	}
}

func TestSmallObjectsNeedHighResolution(t *testing.T) {
	// On a small-object video, dropping the shape hurts much more than on
	// a large-object video.
	small := vid.GenerateWithProfile("s", 21, vid.GenConfig{Frames: 60},
		vid.ContentProfile{ObjectCount: 2, SizeFrac: 0.07, Speed: 3, Clutter: 0.3, Archetype: "t"})
	large := vid.GenerateWithProfile("l", 22, vid.GenConfig{Frames: 60},
		vid.ContentProfile{ObjectCount: 2, SizeFrac: 0.45, Speed: 3, Clutter: 0.3, Archetype: "t"})
	apOn := func(v *vid.Video, shape int) float64 {
		var frames []metric.FrameResult
		for _, f := range v.Frames {
			frames = append(frames, metric.FrameResult{
				Truth: f.Objects,
				Dets:  FasterRCNN.Detect(v, f, Config{Shape: shape, NProp: 100}),
			})
		}
		return metric.MeanAP(frames, metric.DefaultIoU)
	}
	dropSmall := apOn(small, 576) - apOn(small, 224)
	dropLarge := apOn(large, 576) - apOn(large, 224)
	if dropSmall <= dropLarge {
		t.Fatalf("small-object resolution drop %.3f should exceed large-object drop %.3f",
			dropSmall, dropLarge)
	}
}

func TestCrowdedScenesNeedMoreProposals(t *testing.T) {
	crowded := vid.GenerateWithProfile("c", 23, vid.GenConfig{Frames: 60},
		vid.ContentProfile{ObjectCount: 8, SizeFrac: 0.15, Speed: 3, Clutter: 0.5, Archetype: "t"})
	sparse := vid.GenerateWithProfile("p", 24, vid.GenConfig{Frames: 60},
		vid.ContentProfile{ObjectCount: 1, SizeFrac: 0.3, Speed: 3, Clutter: 0.2, Archetype: "t"})
	apOn := func(v *vid.Video, nprop int) float64 {
		var frames []metric.FrameResult
		for _, f := range v.Frames {
			frames = append(frames, metric.FrameResult{
				Truth: f.Objects,
				Dets:  FasterRCNN.Detect(v, f, Config{Shape: 576, NProp: nprop}),
			})
		}
		return metric.MeanAP(frames, metric.DefaultIoU)
	}
	gainCrowded := apOn(crowded, 100) - apOn(crowded, 1)
	gainSparse := apOn(sparse, 100) - apOn(sparse, 1)
	if gainCrowded <= gainSparse {
		t.Fatalf("crowded proposal gain %.3f should exceed sparse gain %.3f",
			gainCrowded, gainSparse)
	}
}

func TestScoresCorrelateWithCorrectness(t *testing.T) {
	// Mean score of matched detections should exceed that of unmatched.
	v := testVideo(9)
	var tpScore, fpScore float64
	var tpN, fpN int
	for _, f := range v.Frames {
		dets := FasterRCNN.Detect(v, f, Config{Shape: 448, NProp: 50})
		for _, d := range dets {
			matched := false
			for _, o := range f.Objects {
				if o.Class == d.Class && d.Box.IoU(o.Box) >= 0.5 {
					matched = true
					break
				}
			}
			if matched {
				tpScore += d.Score
				tpN++
			} else {
				fpScore += d.Score
				fpN++
			}
		}
	}
	if tpN == 0 || fpN == 0 {
		t.Skip("degenerate split")
	}
	if tpScore/float64(tpN) <= fpScore/float64(fpN) {
		t.Fatalf("TP mean score %.3f <= FP mean score %.3f",
			tpScore/float64(tpN), fpScore/float64(fpN))
	}
}

func TestDetectionsInsideFrame(t *testing.T) {
	v := testVideo(10)
	for _, f := range v.Frames {
		for _, d := range FasterRCNN.Detect(v, f, Config{Shape: 320, NProp: 10}) {
			if d.Box.X < -1e-9 || d.Box.Y < -1e-9 ||
				d.Box.MaxX() > float64(v.Width)+1e-9 ||
				d.Box.MaxY() > float64(v.Height)+1e-9 {
				t.Fatalf("detection outside frame: %v", d.Box)
			}
			if d.Score < 0 || d.Score > 1 {
				t.Fatalf("score out of range: %v", d.Score)
			}
		}
	}
}

func TestPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Fatal("non-positive lambda must give 0")
	}
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += float64(poisson(rng, 2.5))
	}
	if mean := sum / float64(n); math.Abs(mean-2.5) > 0.1 {
		t.Fatalf("poisson mean = %v, want ~2.5", mean)
	}
}

func TestMemoryFootprints(t *testing.T) {
	// Models must carry plausible memory footprints for the OOM rows.
	for _, m := range []Model{FasterRCNN, SSDMnasFPN, YOLOv3,
		EfficientDetD0, EfficientDetD3, SELSA, MEGA, REPP, AdaScaleRCNN} {
		if m.MemoryGB <= 0 {
			t.Errorf("%s has no memory footprint", m.Name)
		}
	}
}

func TestMinScoreThresholdFiltersDetections(t *testing.T) {
	v := testVideo(15)
	cfg := Config{Shape: 448, NProp: 50}
	loose := FasterRCNN.Detect(v, v.Frames[0], cfg)
	strict := FasterRCNN.WithMinScore(0.5).Detect(v, v.Frames[0], cfg)
	if len(strict) > len(loose) {
		t.Fatalf("threshold increased detections: %d > %d", len(strict), len(loose))
	}
	for _, d := range strict {
		if d.Score < 0.5 {
			t.Fatalf("detection below threshold survived: %v", d.Score)
		}
	}
	// WithMinScore must not mutate the original.
	if FasterRCNN.MinScore != 0 {
		t.Fatal("WithMinScore mutated the base model")
	}
}

func TestMinScoreTradeoff(t *testing.T) {
	// A moderate threshold trades recall for fewer false positives; at an
	// extreme threshold nearly everything is dropped.
	none := mAPOf(t, SSDMnasFPN, Config{Shape: 576, NProp: 100}, calibSeeds...)
	extreme := mAPOf(t, SSDMnasFPN.WithMinScore(0.95), Config{Shape: 576, NProp: 100}, calibSeeds...)
	if extreme >= none {
		t.Fatalf("extreme threshold should hurt recall: %.3f >= %.3f", extreme, none)
	}
}

// TestDetectWithMatchesDetect checks that a reused, reseeded source
// gives every pass exactly Detect's output, whatever it drew before.
func TestDetectWithMatchesDetect(t *testing.T) {
	v := vid.Generate("detect-with", 3, vid.GenConfig{Frames: 12})
	rng := NewRand()
	for _, m := range []Model{FasterRCNN, SELSA} {
		for _, cfg := range []Config{{Shape: 576, NProp: 100}, {Shape: 224, NProp: 10}} {
			for _, f := range v.Frames {
				rng.Float64() // leftover state from an unrelated draw
				got, want := m.DetectWith(rng, v, f, cfg), m.Detect(v, f, cfg)
				if len(got) != len(want) {
					t.Fatalf("%s %v frame %d: %d detections, Detect gives %d", m.Name, cfg, f.Index, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %v frame %d: detection %d = %+v, Detect gives %+v", m.Name, cfg, f.Index, i, got[i], want[i])
					}
				}
			}
		}
	}
}
