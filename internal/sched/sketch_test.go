package sched

import (
	"math"
	"math/rand"
	"testing"
)

// plainSketch is the projection as a plain double loop: rows in
// ascending order, zero rows skipped, each output accumulated from +0.
func plainSketch(out, z []float64, proj [][]float64) {
	clear(out)
	for i, zi := range z {
		if zi == 0 {
			continue
		}
		for j := range out {
			out[j] += zi * proj[i][j]
		}
	}
}

// TestSketchProjectMatchesPlainLoop checks the register-blocked kernel
// bit for bit against the plain loop: inputs with +0 and −0 entries,
// nonzero counts and widths that are not multiples of four, and −0 and
// infinite projection weights (0·Inf would be NaN, so a kernel that
// stopped skipping zero rows fails).
func TestSketchProjectMatchesPlainLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var nz []int32
	for _, rows := range []int{0, 1, 3, 4, 5, 7, 8, 13, 64, 1024} {
		for _, w := range []int{1, 2, 3, 4, 5, 7, 8, 63, 64} {
			for trial := 0; trial < 6; trial++ {
				z := make([]float64, rows)
				proj := make([][]float64, rows)
				for i := range z {
					switch rng.Intn(5) {
					case 0:
						z[i] = 0
					case 1:
						z[i] = math.Copysign(0, -1)
					default:
						z[i] = rng.NormFloat64()
					}
					proj[i] = make([]float64, w)
					for j := range proj[i] {
						switch rng.Intn(60) {
						case 0, 1, 2, 3, 4, 5, 6, 7:
							proj[i][j] = math.Copysign(0, -1)
						case 8:
							// 0·Inf is NaN: only skipping zero rows keeps it out.
							proj[i][j] = math.Inf(1 - 2*rng.Intn(2))
						default:
							proj[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
						}
					}
				}
				want := make([]float64, w)
				plainSketch(want, z, proj)
				got := make([]float64, w)
				for j := range got {
					got[j] = math.NaN() // stale output must be overwritten
				}
				nz = sketchProject(got, z, proj, nz)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("rows %d width %d trial %d: out[%d] = %v (%#x), plain loop gives %v (%#x)",
							rows, w, trial, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
					}
				}
			}
		}
	}
}

// BenchmarkSketchProject times the ResNet50-sized projection (1024 rows
// into the default 64-wide sketch) against the plain loop.
func BenchmarkSketchProject(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	z := make([]float64, 1024)
	proj := make([][]float64, len(z))
	for i := range z {
		z[i] = rng.NormFloat64()
		proj[i] = make([]float64, 64)
		for j := range proj[i] {
			proj[i][j] = rng.NormFloat64()
		}
	}
	out := make([]float64, 64)
	b.Run("blocked", func(b *testing.B) {
		var nz []int32
		for i := 0; i < b.N; i++ {
			nz = sketchProject(out, z, proj, nz)
		}
	})
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plainSketch(out, z, proj)
		}
	})
}
