package metric

import (
	"math"
	"math/rand"
	"testing"

	"litereconfig/internal/geom"
	"litereconfig/internal/testutil"
	"litereconfig/internal/vid"
)

// sameScore reports whether the scorer's results equal the reference's
// bit for bit, for both MeanAP and every class's APResult.
func sameScore(t *testing.T, what string, s *Scorer, frames []FrameResult) {
	t.Helper()
	got, want := s.MeanAP(frames, DefaultIoU), referenceMeanAP(frames, DefaultIoU)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: MeanAP = %v, reference %v", what, got, want)
	}
	per, ref := s.perClass(frames, DefaultIoU), referencePerClassAP(frames, DefaultIoU)
	for c := range per {
		if per[c].Truths != ref[c].Truths || per[c].Matched != ref[c].Matched ||
			math.Float64bits(per[c].AP) != math.Float64bits(ref[c].AP) {
			t.Fatalf("%s: class %d = %+v, reference %+v", what, c, per[c], ref[c])
		}
	}
}

// fuzzReader hands out the fuzz input's bytes, then zeros.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return int(v)
}

// coord draws a box coordinate or extent: mostly a quarter-pixel grid,
// where boxes overlap by slivers, touch and nest, plus zero and
// negative extents, ±0, ±Inf and NaN.
func (r *fuzzReader) coord() float64 {
	switch v := r.next(); v % 32 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return -float64(v / 32)
	default:
		return float64(v) / 4
	}
}

// score draws a detection score from a few tied values, ±0, ±Inf, the
// neighbours of 0.5 and an occasional NaN.
func (r *fuzzReader) score() float64 {
	switch v := r.next(); v % 16 {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.Nextafter(0.5, 1)
	case 5:
		return math.Nextafter(0.5, 0)
	case 6:
		if v >= 128 {
			return math.NaN()
		}
		return 1
	case 7, 8, 9:
		return 0.5
	default:
		return float64(v) / 256
	}
}

// fuzzFrames decodes up to 16 frames of up to 5 truths (classes 0–2)
// and 11 detections (classes 0–3, so class 3 has detections but no
// truth); empty frames are common.
func fuzzFrames(b []byte) []FrameResult {
	r := &fuzzReader{b: b}
	frames := make([]FrameResult, 1+r.next()%16)
	for f := range frames {
		for i := r.next() % 6; i > 0; i-- {
			frames[f].Truth = append(frames[f].Truth, vid.Object{ID: i,
				Class: vid.Class(r.next() % 3),
				Box:   geom.Rect{X: r.coord(), Y: r.coord(), W: r.coord(), H: r.coord()}})
		}
		for i := r.next() % 12; i > 0; i-- {
			frames[f].Dets = append(frames[f].Dets, Detection{Class: vid.Class(r.next() % 4),
				Box:   geom.Rect{X: r.coord(), Y: r.coord(), W: r.coord(), H: r.coord()},
				Score: r.score()})
		}
	}
	return frames
}

func hasNaNScore(frames []FrameResult) bool {
	for _, fr := range frames {
		for _, d := range fr.Dets {
			if math.IsNaN(d.Score) {
				return true
			}
		}
	}
	return false
}

// FuzzMeanAPMatchesReference checks the scorer against the reference
// bit for bit on decoded scenes, with one Scorer reused across inputs
// so stale scratch would show. A NaN score must panic.
func FuzzMeanAPMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0, 40, 40, 80, 80, 3, 0, 40, 40, 80, 80, 7, 0, 41, 40, 80, 80, 9})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		b := make([]byte, 64+rng.Intn(512))
		rng.Read(b)
		f.Add(b)
	}
	var s Scorer
	f.Fuzz(func(t *testing.T, b []byte) {
		frames := fuzzFrames(b)
		if hasNaNScore(frames) {
			defer func() {
				if recover() == nil {
					t.Fatal("a NaN score did not panic")
				}
			}()
			s.MeanAP(frames, DefaultIoU)
			return
		}
		sameScore(t, "fuzz", &s, frames)
	})
}

// TestScorerMatchesReference covers what short fuzz inputs rarely
// reach: classes with hundreds of detections, which rank by radix sort
// rather than insertion, over tied and continuous scores, with one
// Scorer reused across scenes of growing and shrinking size.
func TestScorerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Scorer
	for trial := 0; trial < 60; trial++ {
		var frames []FrameResult
		if trial%2 == 0 {
			frames = tiedScene(rng, 1+rng.Intn(400))
		} else {
			frames = randomScene(rng, 1+rng.Intn(300), 1+rng.Intn(4))
		}
		sameScore(t, "scene", &s, frames)
	}
	// Identical scores, and a class's whole ranking on ±0 and ±Inf.
	frames := tiedScene(rng, 300)
	for f := range frames {
		for i := range frames[f].Dets {
			switch i % 4 {
			case 0:
				frames[f].Dets[i].Score = math.Copysign(0, -1)
			case 1:
				frames[f].Dets[i].Score = 0
			case 2:
				frames[f].Dets[i].Score = math.Inf(1 - 2*(f%2))
			}
		}
	}
	sameScore(t, "signed zeros and infinities", &s, frames)

	// Boxes of a few pixels on a quarter-pixel grid: many pairs overlap
	// by a sliver or touch, where the interval test must not reject a
	// box Rect.IoU would score.
	for trial := 0; trial < 40; trial++ {
		frames := make([]FrameResult, 1+rng.Intn(60))
		tiny := func() geom.Rect {
			return geom.Rect{X: float64(rng.Intn(24)) / 4, Y: float64(rng.Intn(24)) / 4,
				W: float64(1+rng.Intn(12)) / 4, H: float64(1+rng.Intn(12)) / 4}
		}
		for f := range frames {
			for i := rng.Intn(5); i > 0; i-- {
				frames[f].Truth = append(frames[f].Truth, vid.Object{ID: i, Class: vid.Class(rng.Intn(2)), Box: tiny()})
			}
			for i := rng.Intn(8); i > 0; i-- {
				frames[f].Dets = append(frames[f].Dets, Detection{Class: vid.Class(rng.Intn(2)),
					Box: tiny(), Score: float64(rng.Intn(4)) / 4})
			}
		}
		sameScore(t, "tiny boxes", &s, frames)
	}
}

// TestScorerZeroAllocsWhenWarm checks that a warm Scorer scores a GoF
// without allocating.
func TestScorerZeroAllocsWhenWarm(t *testing.T) {
	frames := randomScene(rand.New(rand.NewSource(3)), 60, 4)
	var s Scorer
	if a := testutil.AllocsPerRun(t, 300, func() { s.MeanAP(frames, DefaultIoU) }); a != 0 {
		t.Fatalf("warm Scorer.MeanAP allocated %d times per call", a)
	}
}

// BenchmarkMeanAP scores a 4 000-frame stream, the size of a finished
// serve stream, with the reference, a fresh Scorer (MeanAP) and a warm
// one.
func BenchmarkMeanAP(b *testing.B) {
	frames := randomScene(rand.New(rand.NewSource(1)), 4000, 4)
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			referenceMeanAP(frames, DefaultIoU)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MeanAP(frames, DefaultIoU)
		}
	})
	b.Run("warm", func(b *testing.B) {
		var s Scorer
		for i := 0; i < b.N; i++ {
			s.MeanAP(frames, DefaultIoU)
		}
	})
}
