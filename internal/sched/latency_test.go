package sched

import (
	"math"
	"math/rand"
	"testing"

	"litereconfig/internal/feat"
	"litereconfig/internal/linreg"
)

// TestLatencyMSMatchesPredict checks the written-out latency dot
// products against math.Max(linreg.Model.Predict(light), 0) bit for
// bit: random fits and light vectors, sums that cancel to ±0, negative
// sums, NaN and ±Inf inputs. Fits and vectors of other lengths than
// the light vector's 4 must panic.
func TestLatencyMSMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e-320}
	draw := func() float64 {
		if rng.Intn(6) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	for trial := 0; trial < 20000; trial++ {
		r := &linreg.Model{Coef: make([]float64, 4), Intercept: draw()}
		light := make([]float64, 4)
		for i := range light {
			r.Coef[i], light[i] = draw(), draw()
		}
		if trial%7 == 0 {
			// A sum that cancels exactly: −0 or +0 before the clamp.
			r.Intercept = math.Copysign(0, float64(rng.Intn(2)*2-1))
			light = []float64{1, 1, 1, 1}
			r.Coef = []float64{0.5, -0.5, 0.25, -0.25}
		}
		want := math.Max(r.Predict(light), 0)
		if got := latencyMS(r, light); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: latencyMS(%+v, %v) = %v (%#x), Max(Predict, 0) = %v (%#x)",
				trial, *r, light, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if d := feat.SpecOf(feat.Light).Dim; d != 4 {
		t.Fatalf("light vector holds %d values; latencyMS is written for 4", d)
	}
	for _, n := range [][2]int{{3, 3}, {5, 5}, {4, 3}, {3, 4}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("latencyMS on a %d-coefficient fit and %d light values did not panic", n[0], n[1])
				}
			}()
			latencyMS(&linreg.Model{Coef: make([]float64, n[0])}, make([]float64, n[1]))
		}()
	}
}
