package vec

import (
	"math"
	"math/rand"
	"testing"

	"litereconfig/internal/testutil"
)

// plainAccumulate is the projection as a plain double loop: rows in
// ascending order, zero rows skipped unless all is set, each product
// added into out's starting value.
func plainAccumulate(out, c []float64, rows [][]float64, all bool) {
	for i, ci := range c {
		if ci == 0 && !all {
			continue
		}
		for j := range out {
			out[j] += float64(ci * rows[i][j])
		}
	}
}

// kernels are the paths Accumulate and AccumulateRows can take: the
// one package init picked for this CPU, through the exported functions,
// and the portable one.
var kernels = []struct {
	name string
	acc  func(out, c []float64, rows [][]float64, nz []int32) []int32
	rows func(out, c []float64, rows [][]float64, idx []int32)
}{
	{"dispatched", Accumulate, AccumulateRows},
	{"portable", func(out, c []float64, rows [][]float64, nz []int32) []int32 {
		nz = nonzeroRows(nz, c, rows, len(out))
		accumulateGo(out, c, rows, nz)
		return nz
	}, accumulateGo},
}

// startValues fills out with the sums a caller may start from: +0 (a
// cleared sketch), −0 and finite biases, and an occasional infinity.
func startValues(rng *rand.Rand, out []float64) {
	for j := range out {
		switch rng.Intn(8) {
		case 0:
			out[j] = 0
		case 1, 2:
			out[j] = math.Copysign(0, -1)
		case 3:
			out[j] = math.Inf(1 - 2*rng.Intn(2))
		default:
			out[j] = rng.NormFloat64()
		}
	}
}

// randomCase draws coefficients with +0 and −0 entries and rows of at
// least w values (some longer, whose excess must not be read) holding
// −0, infinite weights and magnitudes over nine decades. 0·Inf would be
// NaN, so a kernel that stopped skipping zero rows fails.
func randomCase(rng *rand.Rand, rows, w int) ([]float64, [][]float64) {
	c := make([]float64, rows)
	m := make([][]float64, rows)
	for i := range c {
		switch rng.Intn(5) {
		case 0:
			c[i] = 0
		case 1:
			c[i] = math.Copysign(0, -1)
		default:
			c[i] = rng.NormFloat64()
		}
		m[i] = make([]float64, w+rng.Intn(3))
		for j := range m[i] {
			switch rng.Intn(60) {
			case 0, 1, 2, 3, 4, 5, 6, 7:
				m[i][j] = math.Copysign(0, -1)
			case 8:
				m[i][j] = math.Inf(1 - 2*rng.Intn(2))
			default:
				m[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			}
		}
	}
	return c, m
}

// TestAccumulateMatchesPlainLoop checks both kernels bit for bit
// against the plain loop over row counts and widths that are and are
// not multiples of four and sixteen, up to the scheduler's shapes: the
// 1024-, 1280- and 1764-row sketches into 64 outputs, the 37-row
// embeddings into 1024 and 1280 outputs, and the networks' 48-input,
// 300-output layers. Every output starts from a drawn value (+0, −0, a
// finite bias or an infinity) that the products are added into, and
// each case runs twice: over the nonzero rows (Accumulate) and over
// every row (AccumulateRows), where 0·Inf must give NaN.
func TestAccumulateMatchesPlainLoop(t *testing.T) {
	t.Logf("AVX kernel in use: %v", useAVX)
	rng := rand.New(rand.NewSource(3))
	type shape struct{ rows, w int }
	var shapes []shape
	for _, rows := range []int{0, 1, 3, 4, 5, 7, 8, 13, 37, 48, 64, 1024, 1280, 1764} {
		for _, w := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 20, 31, 33, 63, 64, 65, 300} {
			shapes = append(shapes, shape{rows, w})
		}
	}
	for _, rows := range []int{1, 5, 37} {
		for _, w := range []int{1024, 1027, 1280} {
			shapes = append(shapes, shape{rows, w})
		}
	}
	var nz []int32
	for _, s := range shapes {
		all := make([]int32, s.rows)
		for i := range all {
			all[i] = int32(i)
		}
		for trial := 0; trial < 4; trial++ {
			c, m := randomCase(rng, s.rows, s.w)
			start := make([]float64, s.w)
			startValues(rng, start)
			for _, every := range []bool{false, true} {
				want := append([]float64(nil), start...)
				plainAccumulate(want, c, m, every)
				for _, k := range kernels {
					got := append([]float64(nil), start...)
					if every {
						k.rows(got, c, m, all)
					} else {
						nz = k.acc(got, c, m, nz)
					}
					for j := range want {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%s: rows %d width %d trial %d every %v: out[%d] from %v = %v (%#x), plain loop gives %v (%#x)",
								k.name, s.rows, s.w, trial, every, j, start[j], got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
						}
					}
				}
			}
		}
	}
}

// TestAccumulateRejectsShortRow checks that a row shorter than the
// output panics before any kernel reads past it, while a short row
// behind a zero coefficient is never read.
func TestAccumulateRejectsShortRow(t *testing.T) {
	rows := [][]float64{{1, 2, 3, 4, 5}, {1, 2}}
	out := make([]float64, 5)
	Accumulate(out, []float64{1, 0}, rows, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("a 2-value row under a 5-value output did not panic")
		}
	}()
	Accumulate(out, []float64{1, 1}, rows, nil)
}

// TestAccumulateRowsRejectsShortRow checks AccumulateRows' length check:
// a named row shorter than the output panics even under a zero
// coefficient, and an unnamed one is never read.
func TestAccumulateRowsRejectsShortRow(t *testing.T) {
	rows := [][]float64{{1, 2, 3, 4, 5}, {1, 2}}
	out := make([]float64, 5)
	AccumulateRows(out, []float64{1, 0}, rows, []int32{0})
	defer func() {
		if recover() == nil {
			t.Fatal("a 2-value row under a 5-value output did not panic")
		}
	}()
	AccumulateRows(out, []float64{1, 0}, rows, []int32{0, 1})
}

func TestAccumulateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, m := randomCase(rng, 64, 64)
	out := make([]float64, 64)
	nz := Accumulate(out, c, m, nil)
	if a := testutil.AllocsPerRun(t, 300, func() { nz = Accumulate(out, c, m, nz) }); a != 0 {
		t.Fatalf("Accumulate with warm scratch allocated %d times per call", a)
	}
}

// BenchmarkSketchProject times the ResNet50-sized sketch projection
// (1024 rows into the default 64-wide sketch) on each kernel and on the
// plain loop.
func BenchmarkSketchProject(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := make([]float64, 1024)
	rows := make([][]float64, len(c))
	for i := range c {
		c[i] = rng.NormFloat64()
		rows[i] = make([]float64, 64)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	out := make([]float64, 64)
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			var nz []int32
			for i := 0; i < b.N; i++ {
				clear(out)
				nz = k.acc(out, c, rows, nz)
			}
		})
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clear(out)
			plainAccumulate(out, c, rows, false)
		}
	})
}
