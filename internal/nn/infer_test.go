package nn

import (
	"math"
	"math/rand"
	"testing"

	"litereconfig/internal/testutil"
)

// randVec returns n standard-normal values, with a few negatives large
// enough that the ReLU layers clamp some units.
func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2 * rng.NormFloat64()
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (bit-identical)", what, i, got[i], want[i])
		}
	}
}

// layerState is a deep snapshot of every field of a Dense layer, the
// unexported training and forward buffers included. x is kept by
// reference: Forward stores the caller's input slice, not a copy.
type layerState struct {
	w, b, gw, gb, vw, vb, preact, out, gx []float64
	x                                     []float64
}

func snapshot(d *Dense) layerState {
	c := func(s []float64) []float64 { return append([]float64(nil), s...) }
	return layerState{c(d.W), c(d.B), c(d.gw), c(d.gb), c(d.vw), c(d.vb),
		c(d.preact), c(d.out), c(d.gx), d.x}
}

func checkUntouched(t *testing.T, name string, d *Dense, before layerState) {
	t.Helper()
	after := snapshot(d)
	for _, f := range []struct {
		field     string
		got, want []float64
	}{
		{"W", after.w, before.w}, {"B", after.b, before.b},
		{"gw", after.gw, before.gw}, {"gb", after.gb, before.gb},
		{"vw", after.vw, before.vw}, {"vb", after.vb, before.vb},
		{"preact", after.preact, before.preact}, {"out", after.out, before.out},
		{"gx", after.gx, before.gx},
	} {
		sameBits(t, name+"."+f.field, f.got, f.want)
	}
	if len(after.x) != len(before.x) || (len(after.x) > 0 && &after.x[0] != &before.x[0]) {
		t.Fatalf("%s: Infer replaced the layer's stored input", name)
	}
}

// trainedNet returns a small ReLU MLP after a few SGD steps, so the
// momentum and gradient buffers hold non-trivial values.
func trainedNet(t *testing.T) *Net {
	t.Helper()
	n := NewNet(11, 6, 9, 7, 3)
	rng := rand.New(rand.NewSource(5))
	var xs, ys [][]float64
	for i := 0; i < 16; i++ {
		xs = append(xs, randVec(rng, 6))
		ys = append(ys, randVec(rng, 3))
	}
	Trainer{Epochs: 3, Batch: 4, Seed: 1}.FitNet(n, xs, ys)
	n.Freeze()
	return n
}

func TestDenseInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, relu := range []bool{false, true} {
		d := NewDense(7, 5, relu, rng)
		d.Freeze()
		for trial := 0; trial < 20; trial++ {
			x := randVec(rng, 7)
			before := snapshot(d)
			got := d.Infer(make([]float64, 5), x)
			checkUntouched(t, "dense", d, before)
			sameBits(t, "Dense.Infer", got, d.Forward(x))
		}
	}
}

func TestNetInferMatchesForwardAndLeavesNetUntouched(t *testing.T) {
	n := trainedNet(t)
	rng := rand.New(rand.NewSource(9))
	var s Scratch
	for trial := 0; trial < 20; trial++ {
		x := randVec(rng, 6)
		var before []layerState
		for _, l := range n.Layers {
			before = append(before, snapshot(l))
		}
		got := append([]float64(nil), n.Infer(&s, x)...)
		for i, l := range n.Layers {
			checkUntouched(t, "layer", l, before[i])
		}
		sameBits(t, "Net.Infer", got, n.Forward(x))
	}
}

func TestTwoTowerInferMatchesForwardAndLeavesNetUntouched(t *testing.T) {
	tt := NewTwoTower(TwoTowerConfig{InA: 4, InB: 6, ProjDim: 5,
		Hidden: []int{8, 7}, Out: 3, Seed: 13})
	rng := rand.New(rand.NewSource(17))
	var as, bs, ys [][]float64
	for i := 0; i < 12; i++ {
		as = append(as, randVec(rng, 4))
		bs = append(bs, randVec(rng, 6))
		ys = append(ys, randVec(rng, 3))
	}
	Trainer{Epochs: 3, Batch: 4, Seed: 2}.FitTwoTower(tt, as, bs, ys)
	tt.Freeze()
	layers := append([]*Dense{tt.ProjA, tt.ProjB}, tt.Trunk.Layers...)

	var s Scratch
	for trial := 0; trial < 20; trial++ {
		a, b := randVec(rng, 4), randVec(rng, 6)
		var before []layerState
		for _, l := range layers {
			before = append(before, snapshot(l))
		}
		concat := append([]float64(nil), tt.concat...)
		got := append([]float64(nil), tt.Infer(&s, a, b)...)
		for i, l := range layers {
			checkUntouched(t, "layer", l, before[i])
		}
		sameBits(t, "TwoTower.concat", tt.concat, concat)
		sameBits(t, "TwoTower.Infer", got, tt.Forward(a, b))
	}
}

func TestInferZeroAllocsWhenWarm(t *testing.T) {
	n := trainedNet(t)
	tt := NewTwoTower(TwoTowerConfig{InA: 4, InB: 6, ProjDim: 5,
		Hidden: []int{8}, Out: 3, Seed: 13})
	tt.Freeze()
	rng := rand.New(rand.NewSource(1))
	x, a, b := randVec(rng, 6), randVec(rng, 4), randVec(rng, 6)
	dst := make([]float64, n.Layers[0].Out)
	var s Scratch
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Dense.Infer", func() { n.Layers[0].Infer(dst, x) }},
		{"Net.Infer", func() { n.Infer(&s, x) }},
		{"TwoTower.Infer", func() { tt.Infer(&s, a, b) }},
	} {
		// The first call, a warm-up outside the count, grows the scratch.
		if allocs := testutil.AllocsPerRun(t, 300, c.f); allocs != 0 {
			t.Errorf("%s: %d allocs per call after warm-up, want 0", c.name, allocs)
		}
	}
}

func TestDenseInferPanicsOnBadShape(t *testing.T) {
	d := NewDense(3, 2, false, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Freeze()
	d.Infer(make([]float64, 3), make([]float64, 3))
}

// TestInferPanicsUnlessFrozen checks that Infer never reads weights
// older than the layer's: a layer is unfrozen when built and again
// after every Step.
func TestInferPanicsUnlessFrozen(t *testing.T) {
	d := NewDense(3, 2, true, rand.New(rand.NewSource(1)))
	infer := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		d.Infer(make([]float64, 2), make([]float64, 3))
		return false
	}
	if !infer() {
		t.Fatal("Infer on a never-frozen layer did not panic")
	}
	d.Freeze()
	if infer() {
		t.Fatal("Infer on a frozen layer panicked")
	}
	d.Forward([]float64{1, 2, 3})
	d.Backward([]float64{1, 1})
	d.Step(0.1, 0.9, 0, 1)
	if !infer() {
		t.Fatal("Infer after Step did not panic")
	}
}
