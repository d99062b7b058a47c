package vid

import (
	"fmt"
	"math"
	"math/rand"

	"litereconfig/internal/fastrand"
	"litereconfig/internal/geom"
)

// Archetype is a named family of content profiles. The corpus mixes
// archetypes so that no single branch of the execution kernel dominates
// everywhere — the precondition for content-aware scheduling to pay off.
type Archetype struct {
	Name          string
	ObjectCount   [2]int     // min, max concurrent objects
	SizeFrac      [2]float64 // min, max mean size fraction
	Speed         [2]float64 // min, max mean speed (px/frame)
	Clutter       [2]float64
	OcclusionRate [2]float64
}

// Archetypes is the default archetype mix, loosely mirroring the content
// diversity of the VID benchmark (road scenes, wildlife close-ups, fast
// sports-style motion, crowded scenes, static telephoto shots).
var Archetypes = []Archetype{
	{
		Name:        "slow-large", // telephoto wildlife: big, slow subjects
		ObjectCount: [2]int{1, 2}, SizeFrac: [2]float64{0.30, 0.55},
		Speed: [2]float64{0.5, 3}, Clutter: [2]float64{0.1, 0.4},
		OcclusionRate: [2]float64{0.000, 0.002},
	},
	{
		Name:        "fast-small", // distant fast motion: hardest for trackers
		ObjectCount: [2]int{1, 3}, SizeFrac: [2]float64{0.06, 0.16},
		Speed: [2]float64{8, 22}, Clutter: [2]float64{0.3, 0.7},
		OcclusionRate: [2]float64{0.002, 0.010},
	},
	{
		Name:        "crowded", // many mid-size objects: tracker cost scales
		ObjectCount: [2]int{5, 9}, SizeFrac: [2]float64{0.10, 0.22},
		Speed: [2]float64{2, 8}, Clutter: [2]float64{0.4, 0.8},
		OcclusionRate: [2]float64{0.004, 0.014},
	},
	{
		Name:        "road", // vehicles: moderate size, directed motion
		ObjectCount: [2]int{2, 5}, SizeFrac: [2]float64{0.15, 0.35},
		Speed: [2]float64{4, 14}, Clutter: [2]float64{0.3, 0.6},
		OcclusionRate: [2]float64{0.002, 0.008},
	},
	{
		Name:        "static", // near-static scene: trackers nearly free
		ObjectCount: [2]int{1, 4}, SizeFrac: [2]float64{0.18, 0.40},
		Speed: [2]float64{0.1, 1.5}, Clutter: [2]float64{0.1, 0.5},
		OcclusionRate: [2]float64{0.000, 0.003},
	},
	{
		Name:        "erratic", // hand-held close action: speed bursts
		ObjectCount: [2]int{1, 3}, SizeFrac: [2]float64{0.12, 0.30},
		Speed: [2]float64{5, 18}, Clutter: [2]float64{0.5, 0.9},
		OcclusionRate: [2]float64{0.006, 0.020},
	},
}

// GenConfig controls video generation.
type GenConfig struct {
	Width, Height int // native resolution; defaults to 1280x720
	Frames        int // frames per video; defaults to 240
}

func (c *GenConfig) applyDefaults() {
	if c.Width == 0 {
		c.Width = 1280
	}
	if c.Height == 0 {
		c.Height = 720
	}
	if c.Frames == 0 {
		c.Frames = 240
	}
}

func uniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + rng.Float64()*(hi-lo)
}

func uniformInt(rng *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// sampleProfile draws a concrete ContentProfile from an archetype.
func sampleProfile(a Archetype, rng *rand.Rand) ContentProfile {
	return ContentProfile{
		ObjectCount:   uniformInt(rng, a.ObjectCount[0], a.ObjectCount[1]),
		SizeFrac:      uniform(rng, a.SizeFrac[0], a.SizeFrac[1]),
		Speed:         uniform(rng, a.Speed[0], a.Speed[1]),
		Clutter:       uniform(rng, a.Clutter[0], a.Clutter[1]),
		OcclusionRate: uniform(rng, a.OcclusionRate[0], a.OcclusionRate[1]),
		Archetype:     a.Name,
	}
}

// actor is the internal simulated object state, which persists even while
// the object is occluded (hidden from the ground truth).
type actor struct {
	obj          Object
	occludedFor  int // remaining occlusion frames; 0 = visible
	speedSetting float64
}

// sampleIndependent draws a profile whose dimensions are statistically
// independent: object count and size (observable through the light
// features) carry no information about speed or clutter (observable only
// through content features). This independence is what VID-like corpora
// exhibit — a distant bird can be slow, a close car can be fast — and it
// is the property that gives heavy content features value beyond the
// light features.
func sampleIndependent(rng *rand.Rand) ContentProfile {
	logUniform := func(lo, hi float64) float64 {
		return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
	}
	return ContentProfile{
		ObjectCount:   1 + rng.Intn(8),
		SizeFrac:      logUniform(0.07, 0.50),
		Speed:         logUniform(0.5, 20),
		Clutter:       uniform(rng, 0.1, 0.9),
		OcclusionRate: uniform(rng, 0, 0.015),
		Archetype:     "mixed",
	}
}

// Generate creates one synthetic video from the given seed, sampling an
// independent content profile (see sampleIndependent).
func Generate(name string, seed int64, cfg GenConfig) *Video {
	cfg.applyDefaults()
	rng := rand.New(fastrand.New(seed))
	return generateWith(name, seed, cfg, sampleIndependent(rng), rng)
}

// GenerateArchetype creates a video drawn from a named archetype —
// targeted scenarios for examples and tests. It falls back to the
// independent mix for an unknown name.
func GenerateArchetype(name, archetype string, seed int64, cfg GenConfig) *Video {
	cfg.applyDefaults()
	rng := rand.New(fastrand.New(seed))
	for _, a := range Archetypes {
		if a.Name == archetype {
			return generateWith(name, seed, cfg, sampleProfile(a, rng), rng)
		}
	}
	return generateWith(name, seed, cfg, sampleIndependent(rng), rng)
}

// GenerateWithProfile creates a video with an explicit content profile —
// used by tests and ablations that need controlled content.
func GenerateWithProfile(name string, seed int64, cfg GenConfig, p ContentProfile) *Video {
	cfg.applyDefaults()
	rng := rand.New(fastrand.New(seed))
	return generateWith(name, seed, cfg, p, rng)
}

func generateWith(name string, seed int64, cfg GenConfig, p ContentProfile, rng *rand.Rand) *Video {
	v := &Video{
		Name: name, Width: cfg.Width, Height: cfg.Height,
		Profile: p, Seed: seed,
	}
	short := math.Min(float64(cfg.Width), float64(cfg.Height))

	// Pick a small set of classes for the video (VID clips usually follow
	// one or two classes) and spawn the initial actors.
	classCount := 1 + rng.Intn(2)
	classes := make([]Class, classCount)
	for i := range classes {
		classes[i] = Class(rng.Intn(NumClasses))
	}
	nextID := 1
	spawn := func() *actor {
		cl := classes[rng.Intn(len(classes))]
		// Object size mixes the class-typical size with the profile mean,
		// weighted toward the profile so content archetypes control
		// apparent size (and thus resolution sensitivity).
		side := short * (0.3*TypicalSizeFrac(cl) + 0.7*p.SizeFrac) *
			math.Exp(rng.NormFloat64()*0.25)
		side = clampF(side, 8, short*0.9)
		aspect := math.Exp(rng.NormFloat64() * 0.3)
		w := side * math.Sqrt(aspect)
		h := side / math.Sqrt(aspect)
		x := rng.Float64() * (float64(cfg.Width) - w)
		y := rng.Float64() * (float64(cfg.Height) - h)
		speed := p.Speed * math.Exp(rng.NormFloat64()*0.3)
		dir := rng.Float64() * 2 * math.Pi
		a := &actor{
			obj: Object{
				ID: nextID, Class: cl,
				Box: geom.Rect{X: x, Y: y, W: w, H: h},
				VX:  speed * math.Cos(dir), VY: speed * math.Sin(dir),
			},
			speedSetting: speed,
		}
		nextID++
		return a
	}

	actors := make([]*actor, 0, p.ObjectCount)
	for i := 0; i < p.ObjectCount; i++ {
		actors = append(actors, spawn())
	}

	v.Frames = make([]Frame, cfg.Frames)
	// Frames share backing chunks of objects, each sized for the
	// remaining frames at the current cast; a frame never spans two
	// chunks, and its slice is capped at its own length, so appending to
	// one frame's objects never writes into the next.
	var objs []Object
	for fi := 0; fi < cfg.Frames; fi++ {
		if cap(objs)-len(objs) < len(actors) {
			objs = make([]Object, 0, (cfg.Frames-fi)*len(actors))
		}
		frame := Frame{Index: fi}
		start := len(objs)
		for _, a := range actors {
			stepActor(a, cfg, p, rng)
			if a.occludedFor > 0 {
				a.occludedFor--
				continue
			}
			objs = append(objs, a.obj)
		}
		if len(objs) > start {
			frame.Objects = objs[start:len(objs):len(objs)]
		}
		// Rare exit/entry churn keeps object identity non-trivial.
		if rng.Float64() < 0.01 && len(actors) > 1 {
			actors = append(actors[:0], actors[1:]...)
		}
		if rng.Float64() < 0.01 && len(actors) < p.ObjectCount+2 {
			actors = append(actors, spawn())
		}
		v.Frames[fi] = frame
	}
	return v
}

// stepActor advances one object by one frame: velocity jitter, occasional
// direction change, edge bounce, and occlusion events.
func stepActor(a *actor, cfg GenConfig, p ContentProfile, rng *rand.Rand) {
	o := &a.obj

	// Ornstein-Uhlenbeck-style velocity: jitter plus pull toward the
	// actor's own speed setting, so speed stays near the profile mean but
	// direction wanders.
	jitter := a.speedSetting * 0.15
	o.VX += rng.NormFloat64() * jitter
	o.VY += rng.NormFloat64() * jitter
	sp := math.Hypot(o.VX, o.VY)
	if sp > 1e-9 {
		target := a.speedSetting
		corr := 1 + 0.1*(target-sp)/math.Max(sp, 1e-9)
		o.VX *= corr
		o.VY *= corr
	}
	// Occasional sharp direction change (erratic content).
	if rng.Float64() < 0.01+0.02*p.Clutter {
		dir := rng.Float64() * 2 * math.Pi
		sp := math.Max(math.Hypot(o.VX, o.VY), 0.1)
		o.VX = sp * math.Cos(dir)
		o.VY = sp * math.Sin(dir)
	}

	o.Box = o.Box.Translate(o.VX, o.VY)

	// Bounce off frame edges, keeping the box inside.
	w, h := float64(cfg.Width), float64(cfg.Height)
	if o.Box.X < 0 {
		o.Box.X = -o.Box.X
		o.VX = math.Abs(o.VX)
	}
	if o.Box.Y < 0 {
		o.Box.Y = -o.Box.Y
		o.VY = math.Abs(o.VY)
	}
	if o.Box.MaxX() > w {
		o.Box.X -= 2 * (o.Box.MaxX() - w)
		o.VX = -math.Abs(o.VX)
	}
	if o.Box.MaxY() > h {
		o.Box.Y -= 2 * (o.Box.MaxY() - h)
		o.VY = -math.Abs(o.VY)
	}
	o.Box.X = clampF(o.Box.X, 0, math.Max(0, w-o.Box.W))
	o.Box.Y = clampF(o.Box.Y, 0, math.Max(0, h-o.Box.H))

	// Slow size breathing (approach/recede).
	scale := math.Exp(rng.NormFloat64() * 0.005)
	cx, cy := o.Box.CenterX(), o.Box.CenterY()
	o.Box.W = clampF(o.Box.W*scale, 6, w)
	o.Box.H = clampF(o.Box.H*scale, 6, h)
	o.Box.X = clampF(cx-o.Box.W/2, 0, math.Max(0, w-o.Box.W))
	o.Box.Y = clampF(cy-o.Box.H/2, 0, math.Max(0, h-o.Box.H))

	// Occlusion onset.
	if a.occludedFor == 0 && rng.Float64() < p.OcclusionRate {
		a.occludedFor = 2 + rng.Intn(8)
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Corpus is the dataset split used throughout: DetTrain mirrors the 90% of
// VID-train used to train the vision backbones (our parametric detectors
// are calibrated, not trained, but the split is kept for fidelity),
// SchedTrain is the 10% used to train the scheduler's predictors, and Val
// is held out for evaluation only (Sec. 5.2).
type Corpus struct {
	DetTrain   []*Video
	SchedTrain []*Video
	Val        []*Video
}

// CorpusConfig sizes the corpus.
type CorpusConfig struct {
	DetTrain   int // defaults to 36
	SchedTrain int // defaults to 24
	Val        int // defaults to 24
	Gen        GenConfig
	Seed       int64
}

func (c *CorpusConfig) applyDefaults() {
	if c.DetTrain == 0 {
		c.DetTrain = 36
	}
	if c.SchedTrain == 0 {
		c.SchedTrain = 24
	}
	if c.Val == 0 {
		c.Val = 24
	}
	if c.Seed == 0 {
		c.Seed = 20220405 // EuroSys '22 opening day
	}
}

// NewCorpus generates the full dataset deterministically from cfg.Seed.
// Splits use disjoint seed ranges, so the validation set is independent of
// the training sets (the paper's iid assumption, Sec. 6).
func NewCorpus(cfg CorpusConfig) *Corpus {
	cfg.applyDefaults()
	gen := func(prefix string, n int, base int64) []*Video {
		vs := make([]*Video, n)
		for i := 0; i < n; i++ {
			vs[i] = Generate(fmt.Sprintf("%s_%03d", prefix, i), base+int64(i), cfg.Gen)
		}
		return vs
	}
	return &Corpus{
		DetTrain:   gen("train", cfg.DetTrain, cfg.Seed),
		SchedTrain: gen("sched", cfg.SchedTrain, cfg.Seed+100000),
		Val:        gen("val", cfg.Val, cfg.Seed+200000),
	}
}
