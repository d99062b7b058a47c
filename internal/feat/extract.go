package feat

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"litereconfig/internal/fastrand"
	"litereconfig/internal/raster"
	"litereconfig/internal/vec"
	"litereconfig/internal/vid"
)

// RasterSize is the side length of the rendered raster that HoC and HOG
// run over. 64 keeps extraction cheap while leaving 8x8 HOG cells.
const RasterSize = 64

// Extractor computes feature vectors for video frames. It is deterministic
// given its seed (which fixes the simulated embedding networks' weights)
// and safe to reuse across videos. The weights are shared read-only by
// every extractor built from the same seed; only the per-extractor
// scratch below makes one Extractor unsafe for concurrent use. It
// performs no latency accounting — callers charge the clock using the
// Spec costs.
type Extractor struct {
	projResNet [][]float64 // descriptorDim x 1024, shared, read-only
	projMobile [][]float64 // descriptorDim x 1280, shared, read-only

	// The embeddings' working memory, reused across calls: the content
	// descriptor, its nonzero entries, the per-frame noise stream
	// (reseeded on every call) and the noise drawn from it.
	desc  []float64
	nz    []int32
	noise *fastrand.Source
	rng   *rand.Rand
	draws []float64
}

// descriptorDim is the size of the hidden content descriptor the simulated
// embeddings project from: 7 scalar statistics + the class histogram.
const descriptorDim = 7 + vid.NumClasses

// NewExtractor builds an extractor whose simulated embedding weights are
// derived from the seed. The weights are drawn once per seed per process
// and shared; each extractor gets its own scratch.
func NewExtractor(seed int64) *Extractor {
	w := sharedWeights(seed)
	noise := fastrand.New(seed)
	return &Extractor{projResNet: w.resNet, projMobile: w.mobile, noise: noise, rng: rand.New(noise)}
}

// weights are the simulated embedding networks' projection matrices.
// They are a pure function of the seed and only ever read.
type weights struct {
	resNet, mobile [][]float64
}

// buildWeights draws the projection matrices for a seed: the ResNet50
// matrix first, then MobileNetV2's, row by row from one math/rand
// source.
func buildWeights(seed int64) weights {
	rng := rand.New(rand.NewSource(seed))
	mk := func(out int) [][]float64 {
		m := make([][]float64, descriptorDim)
		for i := range m {
			m[i] = make([]float64, out)
			for j := range m[i] {
				m[i][j] = rng.NormFloat64() / math.Sqrt(float64(descriptorDim))
			}
		}
		return m
	}
	return weights{resNet: mk(1024), mobile: mk(1280)}
}

// weightsMemo holds one *weightsEntry per seed. A process sees only a
// handful of feature seeds (one per trained bundle), so it is never
// pruned.
var weightsMemo sync.Map

type weightsEntry struct {
	once sync.Once
	w    weights
}

// sharedWeights returns the seed's weights, building them on first use.
func sharedWeights(seed int64) weights {
	v, ok := weightsMemo.Load(seed)
	if !ok {
		v, _ = weightsMemo.LoadOrStore(seed, new(weightsEntry))
	}
	e := v.(*weightsEntry)
	e.once.Do(func() { e.w = buildWeights(seed) })
	return e.w
}

// Extract computes the feature vector of kind k for frame f of video v.
// The returned slice is freshly allocated with length SpecOf(k).Dim.
func (e *Extractor) Extract(k Kind, v *vid.Video, f vid.Frame) []float64 {
	switch k {
	case Light:
		return LightVector(v, f)
	case HoC:
		return HoCVector(raster.Render(v, f, RasterSize, RasterSize))
	case HOG:
		return HOGVector(raster.Render(v, f, RasterSize, RasterSize))
	case ResNet50:
		return e.embed(nil, v, f, e.projResNet, 11)
	case CPoP:
		return CPoPVector(v, f)
	case MobileNetV2:
		return e.embed(nil, v, f, e.projMobile, 13)
	}
	panic(fmt.Sprintf("feat: unknown kind %d", k))
}

// ExtractInto is Extract writing the embedding and proposal features
// (ResNet50, MobileNetV2, CPoP) into dst, grown only when its capacity
// is short — the allocation-free variant for the scheduler's per-GoF
// hot path. The raster features still return a fresh slice.
func (e *Extractor) ExtractInto(dst []float64, k Kind, v *vid.Video, f vid.Frame) []float64 {
	switch k {
	case ResNet50:
		return e.embed(dst, v, f, e.projResNet, 11)
	case MobileNetV2:
		return e.embed(dst, v, f, e.projMobile, 13)
	case CPoP:
		return cpopInto(dst, v, f, e.noise, e.rng)
	}
	return e.Extract(k, v, f)
}

// LightVector returns the paper's 4-dim light-weight feature: height,
// width, number of objects, averaged object size. Dimensions are scaled
// to comparable magnitudes so downstream models condition well.
func LightVector(v *vid.Video, f vid.Frame) []float64 {
	return LightVectorInto(nil, v, f)
}

// LightVectorInto writes the light features into dst (grown only when
// its capacity is short) and returns it resized to the light dimension —
// the allocation-free variant for the scheduler's per-GoF hot path.
func LightVectorInto(dst []float64, v *vid.Video, f vid.Frame) []float64 {
	st := v.Stats(f)
	short := v.ShortSide()
	if cap(dst) < 4 {
		dst = make([]float64, 4)
	}
	dst = dst[:4]
	dst[0] = float64(st.Height) / 1000.0
	dst[1] = float64(st.Width) / 1000.0
	dst[2] = float64(st.ObjectCount) / 10.0
	dst[3] = st.MeanSize / short
	return dst
}

// descriptor builds the hidden content descriptor the simulated neural
// embeddings observe. It reads the video's generating profile — this is
// the stand-in for what a real CNN would infer from pixels.
func descriptor(d []float64, v *vid.Video, f vid.Frame) []float64 {
	st := v.Stats(f)
	short := v.ShortSide()
	d = append(d[:0],
		float64(st.ObjectCount)/10.0,
		st.MeanSize/short,
		st.MeanSpeed/20.0,
		v.Profile.Clutter,
		v.Profile.OcclusionRate*50.0,
		v.Profile.SizeFrac,
		v.Profile.Speed/20.0,
	)
	d = append(d, vid.ClassHistogram(f)...)
	return d
}

// embed projects the content descriptor through the seeded weight matrix
// (vec.Accumulate: rows in ascending order, zero entries skipped),
// applies tanh, and adds small deterministic per-frame noise, simulating
// a pooled CNN embedding. The result is written into out.
func (e *Extractor) embed(out []float64, v *vid.Video, f vid.Frame, proj [][]float64, salt int64) []float64 {
	e.desc = descriptor(e.desc, v, f)
	n := len(proj[0])
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	clear(out)
	e.nz = vec.Accumulate(out, e.desc, proj, e.nz)
	if cap(e.draws) < n {
		e.draws = make([]float64, n)
	}
	draws := e.draws[:n]
	e.noise.Seed(v.Seed*1000003 + int64(f.Index)*31 + salt)
	e.noise.NormFloat64s(draws)
	for j := range out {
		out[j] = math.Tanh(out[j]) + draws[j]*0.02
	}
	return out
}

// CPoPVector returns the 31-dim Class-Predictions-on-Proposal feature:
// average prediction logits over region proposals, one entry per class
// plus a background class (index 30). We synthesize it as the softened
// ground-truth class histogram plus proposal noise, with the background
// mass reflecting how much of the frame is uncovered.
func CPoPVector(v *vid.Video, f vid.Frame) []float64 {
	src := fastrand.New(0)
	return cpopInto(nil, v, f, src, rand.New(src))
}

// cpopInto is CPoPVector writing into dst (grown only when its capacity
// is short) and drawing its noise from noise, which wraps src and is
// reseeded through it.
func cpopInto(dst []float64, v *vid.Video, f vid.Frame, src *fastrand.Source, noise *rand.Rand) []float64 {
	out := dst[:0]
	if n := vid.NumClasses + 1; cap(out) < n {
		out = make([]float64, n)
	} else {
		out = out[:n]
	}
	hist := vid.ClassHistogram(f)
	var covered float64
	frameArea := float64(v.Width) * float64(v.Height)
	for _, o := range f.Objects {
		covered += o.Box.Area()
	}
	coverFrac := math.Min(covered/frameArea, 1)
	src.Seed(v.Seed*999983 + int64(f.Index)*17)
	for c := 0; c < vid.NumClasses; c++ {
		out[c] = 0.8*hist[c]*coverFrac + math.Abs(noise.NormFloat64())*0.02
	}
	out[vid.NumClasses] = 1 - coverFrac + math.Abs(noise.NormFloat64())*0.02
	return out
}
