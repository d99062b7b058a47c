// Package detect implements the parametric object-detector models that
// stand in for the CNN detectors of the paper (Faster R-CNN, SSD, YOLOv3,
// EfficientDet, and the accuracy-optimized SELSA/MEGA/REPP references).
//
// A Model is a calibrated envelope: detection probability, localization
// noise, score calibration and false-positive rate are explicit functions
// of the detector configuration (input shape, number of proposals) and of
// the content (object size, count, scene clutter). Latency is a smooth
// function of the configuration in TX2 milliseconds. The envelopes are
// calibrated so the relative orderings of the paper hold: heavier
// configurations dominate lighter ones in accuracy, two-stage Faster
// R-CNN has the best accuracy ceiling of the mobile models, and the
// reference models are far more accurate and far slower (Table 3).
//
// Detection outcomes are deterministic per (video, frame, model, config):
// running the same branch on the same frame always yields the same boxes,
// which is what lets offline-collected training labels transfer to online
// execution (the paper's iid assumption, Sec. 6).
package detect

import (
	"math"
	"math/rand"

	"litereconfig/internal/fastrand"
	"litereconfig/internal/geom"
	"litereconfig/internal/metric"
	"litereconfig/internal/vid"
)

// Config is the per-pass detector configuration: the two detector knobs
// of the ApproxDet-style MBEK (Sec. 5.1).
type Config struct {
	Shape int // input short side in pixels (224..576)
	NProp int // number of region proposals in the RPN (1..100)
}

// Shapes and proposal counts exposed by the MBEK, as in ApproxDet.
var (
	Shapes = []int{224, 320, 448, 576}
	NProps = []int{1, 3, 5, 10, 20, 50, 100}
)

// Model is a calibrated detector envelope.
type Model struct {
	Name string

	// Accuracy calibration.
	BaseRecall  float64 // per-object detection probability ceiling
	SizeTheta   float64 // apparent-size (px) sigmoid midpoint for detection
	SizeTau     float64 // sigmoid temperature
	PropGain    float64 // proposal coverage rate per proposal
	ClutterMiss float64 // extra miss pressure from clutter
	LocNoise    float64 // box jitter as a fraction of object size
	ScoreNoise  float64 // score jitter (std)
	FPRate      float64 // expected false positives per frame at clutter 0.5
	ClassErr    float64 // probability of misclassifying a detected object

	// Latency calibration (TX2 milliseconds): cost =
	// CostBase + CostShape*(shape/576)^2 + CostProp*nprop*(shape/576).
	CostBase  float64
	CostShape float64
	CostProp  float64

	// MemoryGB is the resident working-set of the loaded model.
	MemoryGB float64

	// UsesNProp is false for single-stage and reference models, whose
	// NProp knob is ignored.
	UsesNProp bool

	// UsesFuture marks models that aggregate future frames (SELSA, MEGA,
	// REPP); they gain a recall bonus but cannot run in streaming mode.
	UsesFuture bool

	// MinScore drops detections below this confidence before they are
	// returned — the SSD+ baseline's extra tuning knob (Sec. 5.1), which
	// controls how many objects the tracker must carry.
	MinScore float64
}

// WithMinScore returns a copy of the model with the confidence threshold
// set.
func (m Model) WithMinScore(t float64) Model {
	m.MinScore = t
	return m
}

// The calibrated model zoo. Accuracy constants were tuned against the
// synthetic corpus so that end-to-end mAP values land in the bands the
// paper reports (see EXPERIMENTS.md).
var (
	// FasterRCNN is the MBEK's backbone detector (ResNet50 feature
	// extractor + RPN), the most accurate mobile model at full settings.
	FasterRCNN = Model{
		Name:       "faster_rcnn",
		BaseRecall: 0.96, SizeTheta: 30, SizeTau: 9,
		PropGain: 1.1, ClutterMiss: 0.25,
		LocNoise: 0.055, ScoreNoise: 0.08, FPRate: 0.35, ClassErr: 0.03,
		CostBase: 16, CostShape: 92, CostProp: 0.58,
		MemoryGB: 3.4, UsesNProp: true,
	}

	// SSDMnasFPN is SSD with a MobileNetV2 backbone and MnasFPN: cheaper,
	// lower ceiling, no proposal knob (SSD+ baseline).
	SSDMnasFPN = Model{
		Name:       "ssd_mnasfpn",
		BaseRecall: 0.86, SizeTheta: 40, SizeTau: 11,
		PropGain: 0, ClutterMiss: 0.42,
		LocNoise: 0.090, ScoreNoise: 0.12, FPRate: 0.65, ClassErr: 0.07,
		CostBase: 10, CostShape: 52, CostProp: 0,
		MemoryGB: 2.1,
	}

	// YOLOv3 sits between SSD and Faster R-CNN (YOLO+ baseline).
	YOLOv3 = Model{
		Name:       "yolov3",
		BaseRecall: 0.88, SizeTheta: 36, SizeTau: 10,
		PropGain: 0, ClutterMiss: 0.38,
		LocNoise: 0.085, ScoreNoise: 0.11, FPRate: 0.60, ClassErr: 0.06,
		CostBase: 12, CostShape: 68, CostProp: 0,
		MemoryGB: 2.4,
	}

	// EfficientDetD0 and D3 are static single-branch detectors (Table 3):
	// accurate but with a fixed, SLO-breaking cost.
	EfficientDetD0 = Model{
		Name:       "efficientdet_d0",
		BaseRecall: 0.92, SizeTheta: 30, SizeTau: 8,
		PropGain: 0, ClutterMiss: 0.28,
		LocNoise: 0.075, ScoreNoise: 0.10, FPRate: 0.55, ClassErr: 0.06,
		CostBase: 138, CostShape: 0, CostProp: 0,
		MemoryGB: 2.22,
	}
	EfficientDetD3 = Model{
		Name:       "efficientdet_d3",
		BaseRecall: 0.95, SizeTheta: 22, SizeTau: 7,
		PropGain: 0, ClutterMiss: 0.18,
		LocNoise: 0.062, ScoreNoise: 0.08, FPRate: 0.42, ClassErr: 0.045,
		CostBase: 796, CostShape: 0, CostProp: 0,
		MemoryGB: 5.68,
	}

	// AdaScaleRCNN is the Faster R-CNN variant AdaScale re-scales; it has
	// no tracker and no proposal knob exposed, and its base cost follows
	// the paper's Table 3 measurements (227.9 ms at scale 240).
	AdaScaleRCNN = Model{
		Name:       "adascale_rcnn",
		BaseRecall: 0.90, SizeTheta: 32, SizeTau: 9,
		PropGain: 0, ClutterMiss: 0.30,
		LocNoise: 0.080, ScoreNoise: 0.10, FPRate: 0.60, ClassErr: 0.07,
		CostBase: 72, CostShape: 901, CostProp: 0,
		MemoryGB: 3.18,
	}

	// The accuracy-optimized references (Table 3). Their streaming-mode
	// accuracy is reduced versus the published numbers, as in the paper
	// (Sec. 5.3: backbone downgrade + removal of future-frame references).
	SELSA = Model{
		Name:       "selsa_r50",
		BaseRecall: 0.97, SizeTheta: 16, SizeTau: 5,
		PropGain: 0, ClutterMiss: 0.10,
		LocNoise: 0.055, ScoreNoise: 0.07, FPRate: 0.35, ClassErr: 0.035,
		CostBase: 2112, CostShape: 0, CostProp: 0,
		MemoryGB: 6.70, UsesFuture: true,
	}
	MEGA = Model{
		Name:       "mega_r50_base",
		BaseRecall: 0.94, SizeTheta: 20, SizeTau: 6,
		PropGain: 0, ClutterMiss: 0.16,
		LocNoise: 0.065, ScoreNoise: 0.085, FPRate: 0.45, ClassErr: 0.050,
		CostBase: 861, CostShape: 0, CostProp: 0,
		MemoryGB: 3.16, UsesFuture: true,
	}
	REPP = Model{
		Name:       "repp_yolov3",
		BaseRecall: 0.96, SizeTheta: 17, SizeTau: 5,
		PropGain: 0, ClutterMiss: 0.12,
		LocNoise: 0.058, ScoreNoise: 0.075, FPRate: 0.38, ClassErr: 0.040,
		CostBase: 565, CostShape: 0, CostProp: 0,
		MemoryGB: 2.43, UsesFuture: true,
	}
)

// CostMS returns the detector's base latency in TX2 milliseconds for one
// pass under cfg. For models without knobs (EfficientDet, references) the
// configuration is ignored.
func (m Model) CostMS(cfg Config) float64 {
	s := float64(cfg.Shape) / 576.0
	cost := m.CostBase + m.CostShape*s*s
	if m.UsesNProp {
		cost += m.CostProp * float64(cfg.NProp) * s
	}
	return cost
}

// detSeed derives the deterministic RNG seed for one detector pass.
func detSeed(v *vid.Video, frame int, m Model, cfg Config) int64 {
	h := int64(1469598103934665603)
	mix := func(x int64) {
		h ^= x
		h *= 1099511628211
	}
	mix(v.Seed)
	mix(int64(frame) * 2654435761)
	for _, c := range m.Name {
		mix(int64(c))
	}
	mix(int64(cfg.Shape))
	mix(int64(cfg.NProp) * 97)
	return h
}

// Detect runs one simulated detector pass on frame f of video v under
// cfg and returns the detections. It is a pure function of (v, f, m,
// cfg): the pass seeds its own source from them, so callers may run it
// once and share the result (mbek.EvalBranchGroup does, across the
// branches of one configuration). Callers must therefore treat the
// returned slice as read-only.
func (m Model) Detect(v *vid.Video, f vid.Frame, cfg Config) []metric.Detection {
	return m.DetectWith(NewRand(), v, f, cfg)
}

// NewRand returns a source for DetectWith.
func NewRand() *rand.Rand { return rand.New(fastrand.New(0)) }

// DetectWith is Detect drawing from rng, which it reseeds in place
// before the pass, so the result is Detect's whatever rng drew before.
// A caller that runs many passes keeps one NewRand source for all of
// them instead of allocating a fresh one per pass.
func (m Model) DetectWith(rng *rand.Rand, v *vid.Video, f vid.Frame, cfg Config) []metric.Detection {
	rng.Seed(detSeed(v, f.Index, m, cfg))
	short := v.ShortSide()
	clutter := v.Profile.Clutter
	var out []metric.Detection

	for _, o := range f.Objects {
		p := m.detectProb(o, len(f.Objects), cfg, short, clutter)
		if rng.Float64() >= p {
			continue
		}
		det := m.jitterBox(o, cfg, rng, v)
		// Confidence correlates with detection quality so the mAP ranking
		// sweep behaves like a real detector's.
		q := p * det.Box.IoU(o.Box)
		det.Score = clamp01(0.35 + 0.6*q + rng.NormFloat64()*m.ScoreNoise)
		if rng.Float64() < m.ClassErr*(1+clutter) {
			det.Class = vid.Class(rng.Intn(vid.NumClasses))
		}
		out = append(out, det)
	}

	// False positives: Poisson-distributed clutter responses with low
	// scores and plausible sizes.
	lambda := m.FPRate * (0.4 + 1.2*clutter) * sizeFPBoost(cfg, m)
	nFP := poisson(rng, lambda)
	for i := 0; i < nFP; i++ {
		side := short * (0.05 + rng.Float64()*0.25)
		w := side * (0.7 + rng.Float64()*0.6)
		h := side * (0.7 + rng.Float64()*0.6)
		x := rng.Float64() * (float64(v.Width) - w)
		y := rng.Float64() * (float64(v.Height) - h)
		cl := vid.Class(rng.Intn(vid.NumClasses))
		if len(f.Objects) > 0 && rng.Float64() < 0.5 {
			// FPs are biased toward classes present in the scene.
			cl = f.Objects[rng.Intn(len(f.Objects))].Class
		}
		out = append(out, metric.Detection{
			Class: cl,
			Box:   geom.Rect{X: x, Y: y, W: w, H: h},
			Score: clamp01(0.05 + rng.Float64()*0.45),
		})
	}
	if m.MinScore > 0 {
		kept := out[:0]
		for _, d := range out {
			if d.Score >= m.MinScore {
				kept = append(kept, d)
			}
		}
		out = kept
	}
	return out
}

// detectProb is the per-object detection probability.
func (m Model) detectProb(o vid.Object, nVisible int, cfg Config, short, clutter float64) float64 {
	// Apparent size: object size in pixels after resizing to cfg.Shape.
	apparent := math.Sqrt(o.Box.Area()) * float64(cfg.Shape) / short
	sizeTerm := 1 / (1 + math.Exp(-(apparent-m.SizeTheta)/m.SizeTau))

	propTerm := 1.0
	if m.UsesNProp {
		// Probability that at least one proposal covers the object: more
		// visible objects and more clutter dilute the proposal budget.
		demand := float64(nVisible) + 3*clutter
		propTerm = 1 - math.Exp(-m.PropGain*float64(cfg.NProp)/math.Max(demand, 1))
	}
	clutterTerm := 1 - m.ClutterMiss*clutter
	p := m.BaseRecall * sizeTerm * propTerm * clutterTerm
	if m.UsesFuture {
		// Future-frame aggregation recovers borderline objects.
		p = p + (1-p)*0.5
	}
	return clamp01(p)
}

// jitterBox applies configuration-dependent localization noise.
func (m Model) jitterBox(o vid.Object, cfg Config, rng *rand.Rand, v *vid.Video) metric.Detection {
	// Noise grows as the input shrinks below full resolution.
	resFactor := 1 + 0.9*(1-float64(cfg.Shape)/576.0)
	size := math.Sqrt(o.Box.Area())
	sigma := m.LocNoise * size * resFactor
	b := o.Box.Translate(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	scale := math.Exp(rng.NormFloat64() * m.LocNoise * resFactor)
	cx, cy := b.CenterX(), b.CenterY()
	b.W *= scale
	b.H *= scale
	b.X = cx - b.W/2
	b.Y = cy - b.H/2
	b = b.Clamp(float64(v.Width), float64(v.Height))
	return metric.Detection{Class: o.Class, Box: b}
}

// sizeFPBoost: very low-resolution, low-proposal configurations emit
// slightly fewer FPs (fewer proposals to misfire on).
func sizeFPBoost(cfg Config, m Model) float64 {
	s := float64(cfg.Shape) / 576.0
	boost := 0.5 + 0.5*s
	if m.UsesNProp {
		boost *= 0.6 + 0.4*math.Min(float64(cfg.NProp)/50.0, 1)
	}
	return boost
}

// poisson draws a Poisson variate via Knuth's method (lambda is small).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 50 {
			return k
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
