package feat

import (
	"math"
	"testing"

	"litereconfig/internal/raster"
	"litereconfig/internal/simlat"
	"litereconfig/internal/vid"
)

func testVideo(seed int64) *vid.Video {
	return vid.Generate("v", seed, vid.GenConfig{Frames: 12})
}

func TestKindNamesAndLookup(t *testing.T) {
	if NumKinds != 6 {
		t.Fatalf("NumKinds = %d, want 6", NumKinds)
	}
	for k := Kind(0); int(k) < NumKinds; k++ {
		name := k.String()
		got, ok := KindByName(name)
		if !ok || got != k {
			t.Fatalf("round trip failed for %v", k)
		}
		if !k.Valid() {
			t.Fatalf("%v should be valid", k)
		}
	}
	if _, ok := KindByName("bogus"); ok {
		t.Fatal("bogus name resolved")
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("invalid kind name")
	}
	if Light.Heavy() {
		t.Fatal("light is not heavy")
	}
	hk := HeavyKinds()
	if len(hk) != 5 {
		t.Fatalf("HeavyKinds length %d", len(hk))
	}
	for _, k := range hk {
		if !k.Heavy() {
			t.Fatalf("%v should be heavy", k)
		}
	}
}

func TestSpecsMatchTable1(t *testing.T) {
	cases := []struct {
		k          Kind
		dim        int
		extract    float64
		predict    float64
		extractCls simlat.OpClass
	}{
		{Light, 4, 0.12, 3.71, simlat.CPU},
		{HoC, 768, 14.14, 4.94, simlat.CPU},
		{HOG, 1764, 25.32, 4.93, simlat.CPU},
		{ResNet50, 1024, 26.96, 6.07, simlat.GPU},
		{CPoP, 31, 3.62, 4.84, simlat.GPU},
		{MobileNetV2, 1280, 153.96, 9.33, simlat.GPU},
	}
	for _, c := range cases {
		s := SpecOf(c.k)
		if s.Dim != c.dim || s.ExtractMS != c.extract || s.PredictMS != c.predict {
			t.Errorf("%v spec = %+v", c.k, s)
		}
		if s.ExtractClass != c.extractCls {
			t.Errorf("%v extract class = %v", c.k, s.ExtractClass)
		}
		if s.ExtractSharedMS > s.ExtractMS {
			t.Errorf("%v shared cost exceeds standalone", c.k)
		}
	}
	// ResNet50 and CPoP are detector-shared: their shared cost must be a
	// small fraction of MobileNetV2's, which is the Figure 2 story.
	if SpecOf(ResNet50).ExtractSharedMS >= SpecOf(MobileNetV2).ExtractSharedMS/10 {
		t.Error("shared ResNet50 should be far cheaper than MobileNetV2")
	}
	if math.Abs(TotalCostMS(HoC)-(14.14+4.94)) > 1e-9 {
		t.Errorf("TotalCostMS(HoC) = %v", TotalCostMS(HoC))
	}
}

func TestSpecOfPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SpecOf(Kind(-1))
}

func TestExtractDimsMatchSpecs(t *testing.T) {
	e := NewExtractor(1)
	v := testVideo(1)
	for k := Kind(0); int(k) < NumKinds; k++ {
		vec := e.Extract(k, v, v.Frames[0])
		if len(vec) != SpecOf(k).Dim {
			t.Errorf("%v vector dim = %d, want %d", k, len(vec), SpecOf(k).Dim)
		}
		for i, x := range vec {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%v[%d] = %v", k, i, x)
			}
		}
	}
}

func TestExtractDeterministic(t *testing.T) {
	e1, e2 := NewExtractor(5), NewExtractor(5)
	v := testVideo(2)
	for _, k := range []Kind{Light, HoC, HOG, ResNet50, CPoP, MobileNetV2} {
		a := e1.Extract(k, v, v.Frames[3])
		b := e2.Extract(k, v, v.Frames[3])
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v not deterministic at %d", k, i)
			}
		}
	}
}

func TestLightVector(t *testing.T) {
	v := testVideo(3)
	f := v.Frames[0]
	vec := LightVector(v, f)
	if vec[0] != float64(v.Height)/1000 || vec[1] != float64(v.Width)/1000 {
		t.Fatalf("light dims wrong: %v", vec)
	}
	if vec[2] != float64(len(f.Objects))/10 {
		t.Fatalf("light count wrong: %v", vec)
	}
}

func TestHoCProperties(t *testing.T) {
	v := testVideo(4)
	im := raster.Render(v, v.Frames[0], RasterSize, RasterSize)
	h := HoCVector(im)
	if len(h) != 768 {
		t.Fatalf("HoC dim = %d", len(h))
	}
	// Each channel's histogram sums to 1.
	for ch := 0; ch < 3; ch++ {
		var s float64
		for b := 0; b < HoCBins; b++ {
			s += h[ch*HoCBins+b]
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("channel %d sums to %v", ch, s)
		}
	}
	// Empty image yields zero vector, no panic.
	if z := HoCVector(raster.New(0, 0)); len(z) != 768 {
		t.Fatal("empty image HoC wrong length")
	}
}

func TestHoCDistinguishesContent(t *testing.T) {
	a := testVideo(5)
	b := testVideo(6)
	ha := HoCVector(raster.Render(a, a.Frames[0], RasterSize, RasterSize))
	hb := HoCVector(raster.Render(b, b.Frames[0], RasterSize, RasterSize))
	var diff float64
	for i := range ha {
		diff += math.Abs(ha[i] - hb[i])
	}
	if diff < 0.05 {
		t.Fatalf("HoC of different videos nearly identical: L1=%v", diff)
	}
}

func TestHOGProperties(t *testing.T) {
	v := testVideo(7)
	im := raster.Render(v, v.Frames[0], RasterSize, RasterSize)
	h := HOGVector(im)
	if len(h) != 1764 {
		t.Fatalf("HOG dim = %d, want 1764", len(h))
	}
	for _, x := range h {
		if x < 0 || math.IsNaN(x) {
			t.Fatalf("bad HOG value %v", x)
		}
	}
	// Each 36-dim block is approximately L2-normalized (<= 1).
	for b := 0; b < len(h)/36; b++ {
		var n float64
		for i := 0; i < 36; i++ {
			n += h[b*36+i] * h[b*36+i]
		}
		if n > 1+1e-6 {
			t.Fatalf("block %d norm %v > 1", b, n)
		}
	}
	// A flat image has zero gradients everywhere.
	flat := raster.New(RasterSize, RasterSize)
	for i := range flat.Pix {
		flat.Pix[i] = 128
	}
	for _, x := range HOGVector(flat) {
		if x != 0 {
			t.Fatal("flat image should have zero HOG")
		}
	}
	// Degenerate sizes.
	if HOGVector(raster.New(4, 4)) != nil {
		t.Fatal("tiny image should return nil")
	}
}

func TestHOGOrientationSelectivity(t *testing.T) {
	// A vertical edge produces horizontal gradients -> orientation bin 0.
	im := raster.New(RasterSize, RasterSize)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			var v byte
			if x >= im.W/2 {
				v = 255
			}
			i := (y*im.W + x) * 3
			im.Pix[i], im.Pix[i+1], im.Pix[i+2] = v, v, v
		}
	}
	h := HOGVector(im)
	// Sum per orientation bin across all blocks.
	bins := make([]float64, hogBins)
	for i, x := range h {
		bins[i%hogBins] += x
	}
	maxBin := 0
	for i := range bins {
		if bins[i] > bins[maxBin] {
			maxBin = i
		}
	}
	if maxBin != 0 {
		t.Fatalf("vertical edge peaked at bin %d, want 0 (bins=%v)", maxBin, bins)
	}
}

func TestCPoPReflectsClasses(t *testing.T) {
	v := testVideo(8)
	var frame vid.Frame
	for _, f := range v.Frames {
		if len(f.Objects) > 0 {
			frame = f
			break
		}
	}
	if len(frame.Objects) == 0 {
		t.Skip("no populated frame")
	}
	c := CPoPVector(v, frame)
	if len(c) != 31 {
		t.Fatalf("CPoP dim = %d", len(c))
	}
	// The present class must have more mass than a random absent class.
	present := frame.Objects[0].Class
	var absent vid.Class
	for cl := vid.Class(0); int(cl) < vid.NumClasses; cl++ {
		found := false
		for _, o := range frame.Objects {
			if o.Class == cl {
				found = true
			}
		}
		if !found {
			absent = cl
			break
		}
	}
	if c[present] <= c[absent] {
		t.Fatalf("present class %v mass %v <= absent %v mass %v",
			present, c[present], absent, c[absent])
	}
	// Empty frame: all mass on background.
	e := CPoPVector(v, vid.Frame{Index: 0})
	if e[30] < 0.9 {
		t.Fatalf("empty frame background mass = %v", e[30])
	}
}

func TestEmbeddingsCarryContentSignal(t *testing.T) {
	// Embeddings of the same frame under different extractor seeds differ
	// (different "network weights"), but under one extractor, frames from
	// very different content differ more than adjacent frames of the same
	// video.
	e := NewExtractor(1)
	slow := vid.GenerateWithProfile("s", 10, vid.GenConfig{Frames: 4},
		vid.ContentProfile{ObjectCount: 1, SizeFrac: 0.5, Speed: 1, Clutter: 0.1, Archetype: "t"})
	fast := vid.GenerateWithProfile("f", 11, vid.GenConfig{Frames: 4},
		vid.ContentProfile{ObjectCount: 6, SizeFrac: 0.1, Speed: 20, Clutter: 0.9, Archetype: "t"})
	d := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += (a[i] - b[i]) * (a[i] - b[i])
		}
		return math.Sqrt(s)
	}
	sameVid := d(e.Extract(ResNet50, slow, slow.Frames[0]),
		e.Extract(ResNet50, slow, slow.Frames[1]))
	crossVid := d(e.Extract(ResNet50, slow, slow.Frames[0]),
		e.Extract(ResNet50, fast, fast.Frames[0]))
	if crossVid <= sameVid {
		t.Fatalf("embedding does not separate content: same=%v cross=%v", sameVid, crossVid)
	}
}

func BenchmarkHOG(b *testing.B) {
	v := testVideo(1)
	im := raster.Render(v, v.Frames[0], RasterSize, RasterSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HOGVector(im)
	}
}

func BenchmarkHoC(b *testing.B) {
	v := testVideo(1)
	im := raster.Render(v, v.Frames[0], RasterSize, RasterSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HoCVector(im)
	}
}

// BenchmarkEmbed times one simulated embedding per kind through a
// reused extractor and output buffer, as the scheduler's heavy-feature
// path calls it: the projection, the tanh and the noise draws.
func BenchmarkEmbed(b *testing.B) {
	v := testVideo(5)
	for _, k := range []Kind{ResNet50, MobileNetV2} {
		b.Run(k.String(), func(b *testing.B) {
			e := NewExtractor(1)
			var dst []float64
			for i := 0; i < b.N; i++ {
				dst = e.ExtractInto(dst, k, v, v.Frames[i%len(v.Frames)])
			}
		})
	}
}
