package feat

import (
	"math"
	"sync"
	"testing"
)

// sameBits reports whether two weight matrices are equal bit for bit.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func TestExtractorsShareWeightsPerSeed(t *testing.T) {
	a, b := NewExtractor(41), NewExtractor(41)
	if &a.projResNet[0][0] != &b.projResNet[0][0] || &a.projMobile[0][0] != &b.projMobile[0][0] {
		t.Fatal("extractors with the same seed hold separate weight arrays")
	}
	if a.noise == b.noise {
		t.Fatal("extractors share scratch")
	}
}

func TestSharedWeightsMatchDirectBuild(t *testing.T) {
	for _, seed := range []int64{1, 7, -3} {
		direct := buildWeights(seed)
		shared := NewExtractor(seed)
		if len(direct.resNet) != descriptorDim || len(direct.resNet[0]) != 1024 ||
			len(direct.mobile) != descriptorDim || len(direct.mobile[0]) != 1280 {
			t.Fatalf("seed %d: weight shapes changed", seed)
		}
		if !sameBits(direct.resNet, shared.projResNet) || !sameBits(direct.mobile, shared.projMobile) {
			t.Fatalf("seed %d: memoized weights differ from a direct build", seed)
		}
	}
}

func TestWeightsDifferAcrossSeeds(t *testing.T) {
	a, b := NewExtractor(2), NewExtractor(3)
	if sameBits(a.projResNet, b.projResNet) || sameBits(a.projMobile, b.projMobile) {
		t.Fatal("different seeds gave identical weights")
	}
}

// Extractors built concurrently from one seed race on the memo's first
// fill and then read the shared weights from several goroutines; under
// -race this must be clean, and every goroutine must produce the same
// embeddings as a serial extractor over directly built weights.
func TestConcurrentExtractorsOnSharedWeights(t *testing.T) {
	const seed = 977 // no other test uses it, so the first fill races here
	v := testVideo(5)
	embedAll := func(ex *Extractor) []float64 {
		var out, buf []float64
		for _, f := range v.Frames {
			for _, k := range []Kind{ResNet50, MobileNetV2, CPoP} {
				buf = ex.ExtractInto(buf, k, v, f)
				out = append(out, buf...)
			}
		}
		return out
	}
	direct := buildWeights(seed)
	ref := NewExtractor(seed + 1) // own scratch; weights swapped for the direct build
	ref.projResNet, ref.projMobile = direct.resNet, direct.mobile
	want := embedAll(ref)

	const workers = 4
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = embedAll(NewExtractor(seed))
		}()
	}
	wg.Wait()
	for g, out := range got {
		if len(out) != len(want) {
			t.Fatalf("worker %d: %d values, want %d", g, len(out), len(want))
		}
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Fatalf("worker %d: value %d = %v, serial %v", g, i, out[i], want[i])
			}
		}
	}
}
