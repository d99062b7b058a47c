package vid

import (
	"encoding/gob"
	"hash/fnv"
	"math"
	"testing"
)

func TestClassNames(t *testing.T) {
	if NumClasses != 30 {
		t.Fatalf("NumClasses = %d, want 30", NumClasses)
	}
	seen := map[string]bool{}
	for c := Class(0); int(c) < NumClasses; c++ {
		name := c.String()
		if name == "" || name == "unknown" {
			t.Errorf("class %d has bad name %q", c, name)
		}
		if seen[name] {
			t.Errorf("duplicate class name %q", name)
		}
		seen[name] = true
		if !c.Valid() {
			t.Errorf("class %d should be valid", c)
		}
	}
	if Class(-1).Valid() || Class(NumClasses).Valid() {
		t.Error("out-of-range classes should be invalid")
	}
	if Class(99).String() != "unknown" {
		t.Error("out-of-range String should be unknown")
	}
}

func TestTypicalSizeFracBounds(t *testing.T) {
	for c := Class(0); int(c) < NumClasses; c++ {
		f := TypicalSizeFrac(c)
		if f <= 0 || f >= 1 {
			t.Errorf("TypicalSizeFrac(%v) = %v out of (0,1)", c, f)
		}
	}
	if TypicalSizeFrac(Class(-5)) != 0.25 {
		t.Error("invalid class should fall back to 0.25")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate("v", 42, GenConfig{Frames: 60})
	b := Generate("v", 42, GenConfig{Frames: 60})
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Frames {
		fa, fb := a.Frames[i], b.Frames[i]
		if len(fa.Objects) != len(fb.Objects) {
			t.Fatalf("frame %d object counts differ", i)
		}
		for j := range fa.Objects {
			if fa.Objects[j] != fb.Objects[j] {
				t.Fatalf("frame %d object %d differs: %+v vs %+v",
					i, j, fa.Objects[j], fb.Objects[j])
			}
		}
	}
	c := Generate("v", 43, GenConfig{Frames: 60})
	same := true
	for i := range a.Frames {
		if len(a.Frames[i].Objects) != len(c.Frames[i].Objects) {
			same = false
			break
		}
		for j := range a.Frames[i].Objects {
			if a.Frames[i].Objects[j] != c.Frames[i].Objects[j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical videos")
	}
}

func TestGeneratedBoxesInsideFrame(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		v := Generate("v", seed, GenConfig{Frames: 120})
		for _, f := range v.Frames {
			for _, o := range f.Objects {
				if o.Box.Empty() {
					t.Fatalf("seed %d frame %d: empty box %v", seed, f.Index, o.Box)
				}
				if o.Box.X < -1e-6 || o.Box.Y < -1e-6 ||
					o.Box.MaxX() > float64(v.Width)+1e-6 ||
					o.Box.MaxY() > float64(v.Height)+1e-6 {
					t.Fatalf("seed %d frame %d: box out of frame: %v (frame %dx%d)",
						seed, f.Index, o.Box, v.Width, v.Height)
				}
			}
		}
	}
}

func TestMotionSmoothness(t *testing.T) {
	// Boxes should move continuously: center displacement per frame is
	// bounded by a small multiple of the profile speed.
	v := Generate("v", 7, GenConfig{Frames: 200})
	limit := v.Profile.Speed*6 + 20
	prev := map[int]Object{}
	for _, f := range v.Frames {
		cur := map[int]Object{}
		for _, o := range f.Objects {
			cur[o.ID] = o
			if p, ok := prev[o.ID]; ok {
				dx := o.Box.CenterX() - p.Box.CenterX()
				dy := o.Box.CenterY() - p.Box.CenterY()
				if math.Hypot(dx, dy) > limit {
					t.Fatalf("frame %d object %d jumped %.1f px (limit %.1f)",
						f.Index, o.ID, math.Hypot(dx, dy), limit)
				}
			}
		}
		prev = cur
	}
}

func TestObjectIDsStableAndUniquePerFrame(t *testing.T) {
	v := Generate("v", 11, GenConfig{Frames: 150})
	classOf := map[int]Class{}
	for _, f := range v.Frames {
		seen := map[int]bool{}
		for _, o := range f.Objects {
			if seen[o.ID] {
				t.Fatalf("frame %d: duplicate object id %d", f.Index, o.ID)
			}
			seen[o.ID] = true
			if cl, ok := classOf[o.ID]; ok && cl != o.Class {
				t.Fatalf("object %d changed class %v -> %v", o.ID, cl, o.Class)
			}
			classOf[o.ID] = o.Class
		}
	}
}

func TestSnippets(t *testing.T) {
	v := Generate("v", 3, GenConfig{Frames: 250})
	ss := v.Snippets(100)
	total := 0
	for i, s := range ss {
		if s.Video != v {
			t.Fatalf("snippet %d has wrong video", i)
		}
		if s.Start != total {
			t.Fatalf("snippet %d starts at %d, want %d", i, s.Start, total)
		}
		total += s.N
	}
	if total != v.Len() {
		t.Fatalf("snippets cover %d frames, want %d", total, v.Len())
	}
	// 250 = 100 + 100 + 50 tail >= n/2, so three snippets.
	if len(ss) != 3 {
		t.Fatalf("got %d snippets, want 3", len(ss))
	}
	// A short tail folds into the previous snippet: 230 = 100 + 130.
	v2 := Generate("v2", 3, GenConfig{Frames: 230})
	ss2 := v2.Snippets(100)
	if len(ss2) != 2 || ss2[1].N != 130 {
		t.Fatalf("tail folding failed: %+v", ss2)
	}
	if got := len(ss2[1].Frames()); got != 130 {
		t.Fatalf("snippet Frames() length = %d, want 130", got)
	}
	if ss2[0].First().Index != 0 {
		t.Fatalf("First() index = %d", ss2[0].First().Index)
	}
}

func TestSnippetsPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	v := Generate("v", 1, GenConfig{Frames: 10})
	v.Snippets(0)
}

func TestStats(t *testing.T) {
	v := Generate("v", 5, GenConfig{Frames: 50})
	for _, f := range v.Frames {
		st := v.Stats(f)
		if st.Width != v.Width || st.Height != v.Height {
			t.Fatalf("stats dims wrong: %+v", st)
		}
		if st.ObjectCount != len(f.Objects) {
			t.Fatalf("object count wrong")
		}
		if len(f.Objects) > 0 && st.MeanSize <= 0 {
			t.Fatalf("mean size should be positive with objects present")
		}
	}
	empty := v.Stats(Frame{Index: 0})
	if empty.MeanSize != 0 || empty.MeanSpeed != 0 || empty.ObjectCount != 0 {
		t.Fatalf("empty frame stats should be zero: %+v", empty)
	}
}

func TestClassHistogram(t *testing.T) {
	f := Frame{Objects: []Object{
		{ID: 1, Class: Car}, {ID: 2, Class: Car}, {ID: 3, Class: Dog},
	}}
	h := ClassHistogram(f)
	if len(h) != NumClasses {
		t.Fatalf("histogram length %d", len(h))
	}
	if math.Abs(h[Car]-2.0/3) > 1e-12 || math.Abs(h[Dog]-1.0/3) > 1e-12 {
		t.Fatalf("histogram values wrong: car=%v dog=%v", h[Car], h[Dog])
	}
	sum := 0.0
	for _, x := range h {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("histogram sums to %v", sum)
	}
	he := ClassHistogram(Frame{})
	for _, x := range he {
		if x != 0 {
			t.Fatal("empty frame histogram should be zero")
		}
	}
}

func TestIndependentProfileBounds(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		v := Generate("v", seed, GenConfig{Frames: 2})
		p := v.Profile
		if p.Archetype != "mixed" {
			t.Fatalf("default generator archetype = %q, want mixed", p.Archetype)
		}
		if p.ObjectCount < 1 || p.ObjectCount > 8 {
			t.Errorf("object count %d out of [1,8]", p.ObjectCount)
		}
		if p.SizeFrac < 0.07 || p.SizeFrac > 0.50 {
			t.Errorf("size frac %v out of range", p.SizeFrac)
		}
		if p.Speed < 0.5 || p.Speed > 20 {
			t.Errorf("speed %v out of range", p.Speed)
		}
		if p.Clutter < 0.1 || p.Clutter > 0.9 {
			t.Errorf("clutter %v out of range", p.Clutter)
		}
	}
}

func TestProfileDimensionsDecorrelated(t *testing.T) {
	// Size (light-visible) must carry no information about speed
	// (content-only): correlation over many seeds stays near zero.
	var sx, sy, sxx, syy, sxy float64
	n := 300
	for seed := int64(0); seed < int64(n); seed++ {
		v := Generate("v", seed, GenConfig{Frames: 1})
		x := math.Log(v.Profile.SizeFrac)
		y := math.Log(v.Profile.Speed)
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	fn := float64(n)
	cov := sxy/fn - (sx/fn)*(sy/fn)
	vx := sxx/fn - (sx/fn)*(sx/fn)
	vy := syy/fn - (sy/fn)*(sy/fn)
	corr := cov / math.Sqrt(vx*vy)
	if math.Abs(corr) > 0.15 {
		t.Fatalf("size-speed correlation = %.3f, want ~0", corr)
	}
}

func TestGenerateArchetype(t *testing.T) {
	for _, a := range Archetypes {
		v := GenerateArchetype("v", a.Name, 5, GenConfig{Frames: 2})
		if v.Profile.Archetype != a.Name {
			t.Fatalf("archetype %q not applied: got %q", a.Name, v.Profile.Archetype)
		}
		p := v.Profile
		if p.Speed < a.Speed[0] || p.Speed > a.Speed[1] {
			t.Errorf("%s: speed %v out of %v", a.Name, p.Speed, a.Speed)
		}
	}
	// Unknown archetype falls back to the independent mix.
	v := GenerateArchetype("v", "bogus", 5, GenConfig{Frames: 2})
	if v.Profile.Archetype != "mixed" {
		t.Fatalf("fallback archetype = %q", v.Profile.Archetype)
	}
}

func TestGenerateWithProfile(t *testing.T) {
	p := ContentProfile{ObjectCount: 3, SizeFrac: 0.2, Speed: 5,
		Clutter: 0.5, OcclusionRate: 0.01, Archetype: "custom"}
	v := GenerateWithProfile("v", 9, GenConfig{Frames: 30}, p)
	if v.Profile != p {
		t.Fatalf("profile not preserved: %+v", v.Profile)
	}
	if len(v.Frames) != 30 {
		t.Fatalf("frames = %d", len(v.Frames))
	}
	// Should start with the requested number of actors.
	if n := len(v.Frames[0].Objects); n > p.ObjectCount {
		t.Fatalf("first frame has %d objects, profile wants <= %d", n, p.ObjectCount)
	}
}

func TestNewCorpus(t *testing.T) {
	c := NewCorpus(CorpusConfig{DetTrain: 4, SchedTrain: 3, Val: 2,
		Gen: GenConfig{Frames: 20}})
	if len(c.DetTrain) != 4 || len(c.SchedTrain) != 3 || len(c.Val) != 2 {
		t.Fatalf("split sizes wrong: %d/%d/%d",
			len(c.DetTrain), len(c.SchedTrain), len(c.Val))
	}
	names := map[string]bool{}
	for _, vs := range [][]*Video{c.DetTrain, c.SchedTrain, c.Val} {
		for _, v := range vs {
			if names[v.Name] {
				t.Fatalf("duplicate video name %q", v.Name)
			}
			names[v.Name] = true
		}
	}
	// Determinism of the whole corpus.
	c2 := NewCorpus(CorpusConfig{DetTrain: 4, SchedTrain: 3, Val: 2,
		Gen: GenConfig{Frames: 20}})
	if c.Val[0].Frames[5].Objects[0] != c2.Val[0].Frames[5].Objects[0] {
		t.Fatal("corpus not deterministic")
	}
}

func TestCorpusDefaultSizes(t *testing.T) {
	cfg := CorpusConfig{Gen: GenConfig{Frames: 2}}
	c := NewCorpus(cfg)
	if len(c.DetTrain) != 36 || len(c.SchedTrain) != 24 || len(c.Val) != 24 {
		t.Fatalf("default sizes wrong: %d/%d/%d",
			len(c.DetTrain), len(c.SchedTrain), len(c.Val))
	}
}

func TestContentDiversity(t *testing.T) {
	// Across many seeds the independent mix must span slow and fast,
	// small and large content.
	var fast, slow, small, large int
	for seed := int64(0); seed < 60; seed++ {
		v := Generate("v", seed, GenConfig{Frames: 1})
		if v.Profile.Speed > 8 {
			fast++
		}
		if v.Profile.Speed < 2 {
			slow++
		}
		if v.Profile.SizeFrac < 0.12 {
			small++
		}
		if v.Profile.SizeFrac > 0.35 {
			large++
		}
	}
	if fast < 5 || slow < 5 || small < 5 || large < 5 {
		t.Fatalf("content mix unbalanced: fast=%d slow=%d small=%d large=%d",
			fast, slow, small, large)
	}
}

// videoDigest hashes the gob encoding of videos (Video holds no map, so
// the encoding is deterministic).
func videoDigest(t *testing.T, videos []*Video) uint64 {
	t.Helper()
	h := fnv.New64a()
	enc := gob.NewEncoder(h)
	for _, v := range videos {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return h.Sum64()
}

// TestGenerateDigestGolden pins the generators' output across commits:
// the digests were recorded from the math/rand-seeded generators, so a
// change of random source must reproduce every draw.
func TestGenerateDigestGolden(t *testing.T) {
	var plain, arch []*Video
	for i, seed := range []int64{1, 7, 42, 1001, -5} {
		plain = append(plain, Generate("g", seed, GenConfig{Frames: 30 + 20*i}))
	}
	for i, a := range append(Archetypes, Archetype{Name: "unknown"}) {
		arch = append(arch, GenerateArchetype("a", a.Name, int64(100+i), GenConfig{Frames: 40}))
	}
	prof := []*Video{GenerateWithProfile("p", 9, GenConfig{Frames: 50}, ContentProfile{
		ObjectCount: 5, SizeFrac: 0.2, Speed: 6, Clutter: 0.4, OcclusionRate: 0.01,
	})}
	for _, c := range []struct {
		name   string
		videos []*Video
		want   uint64
	}{
		{"Generate", plain, 0xe69ef93d3098ef8f},
		{"GenerateArchetype", arch, 0xe6b5785709421909},
		{"GenerateWithProfile", prof, 0xec2b41771ba8ea07},
	} {
		if got := videoDigest(t, c.videos); got != c.want {
			t.Errorf("%s digest %#x, want %#x", c.name, got, c.want)
		}
	}
}
