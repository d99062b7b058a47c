package fastrand

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// identitySeeds covers the seed normalization's edge cases: zero and
// every multiple of the modulus (both map to 89482311), negative seeds,
// the modulus's neighbours, seeds at and beyond 2³¹, and the int64
// extremes.
var identitySeeds = []int64{
	0, 1, -1, 2, 89482311, -89482311,
	int32max - 1, int32max, int32max + 1, -int32max, 2 * int32max, -3 * int32max,
	1 << 31, 1<<31 + 12345, 1 << 40, 1<<62 + 7,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	1469598103934665603, -7046029254386353131,
}

// drawsPerSeed makes the 607-word register wrap more than three times,
// so every word is read both freshly seeded and after being fed back.
const drawsPerSeed = 2000

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range identitySeeds {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(New(seed))
		for i := 0; i < drawsPerSeed; i++ {
			w, g := draw(want, i), draw(got, i)
			if w != g {
				t.Fatalf("seed %d: draw %d (%s) = %v, math/rand gives %v", seed, i, drawName(i), g, w)
			}
		}
	}
}

func TestSourceBulkMethodsMatchMathRand(t *testing.T) {
	for _, seed := range identitySeeds {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(New(seed))
		for round := 0; round < 20; round++ {
			n := 1 + round*13
			if w, g := want.Perm(n), got.Perm(n); !slices.Equal(w, g) {
				t.Fatalf("seed %d: Perm(%d) = %v, math/rand gives %v", seed, n, g, w)
			}
			ws, gs := seq(n), seq(n)
			want.Shuffle(n, func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
			got.Shuffle(n, func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
			if !slices.Equal(ws, gs) {
				t.Fatalf("seed %d: Shuffle(%d) = %v, math/rand gives %v", seed, n, gs, ws)
			}
		}
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d: Int63 after bulk draws = %d, math/rand gives %d", seed, g, w)
		}
	}
}

// TestReseedRestartsStream checks that Seed on a used source gives the
// stream of a fresh one, including words computed before the reseed:
// every scalar method of the identity sequence (NormFloat64 and Intn
// among them), then Shuffle. Reusing one source per tracker or kernel
// relies on this.
func TestReseedRestartsStream(t *testing.T) {
	r := rand.New(New(7))
	for i := 0; i < 900; i++ {
		r.Uint64()
	}
	for _, seed := range []int64{42, 0, -5, 7, math.MaxInt64} {
		r.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 700; i++ {
			if w, g := draw(want, i), draw(r, i); w != g {
				t.Fatalf("reseed %d: draw %d (%s) = %v, math/rand gives %v", seed, i, drawName(i), g, w)
			}
		}
		ws, gs := seq(100), seq(100)
		want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
		r.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
		if !slices.Equal(ws, gs) {
			t.Fatalf("reseed %d: Shuffle = %v, math/rand gives %v", seed, gs, ws)
		}
	}
}

func TestSourceIsSource64(t *testing.T) {
	var _ rand.Source64 = New(1)
}

// FuzzSource asserts 700 identical draws for any seed: enough to read
// every register word at least twice.
func FuzzSource(f *testing.F) {
	for _, seed := range identitySeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(New(seed))
		for i := 0; i < 700; i++ {
			if w, g := draw(want, i), draw(got, i); w != g {
				t.Fatalf("seed %d: draw %d (%s) = %v, math/rand gives %v", seed, i, drawName(i), g, w)
			}
		}
	})
}

// draw makes the i-th draw of the identity sequence, cycling through
// every scalar rand.Rand method so each consumes the stream in its own
// way (one word, two words, rejection loops).
func draw(r *rand.Rand, i int) any {
	switch i % 9 {
	case 0:
		return r.Int63()
	case 1:
		return r.Uint64()
	case 2:
		return math.Float64bits(r.Float64())
	case 3:
		return math.Float64bits(r.NormFloat64())
	case 4:
		return math.Float64bits(r.ExpFloat64())
	case 5:
		return r.Intn(1 + i%97)
	case 6:
		return r.Int31n(int32(1 + i*7919))
	case 7:
		return r.Int63n(1<<40 + int64(i))
	default:
		return r.Uint32()
	}
}

func drawName(i int) string {
	return [...]string{"Int63", "Uint64", "Float64", "NormFloat64", "ExpFloat64",
		"Intn", "Int31n", "Int63n", "Uint32"}[i%9]
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func BenchmarkSeedAnd20Draws(b *testing.B) {
	b.Run("fastrand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := rand.New(New(int64(i)))
			for j := 0; j < 20; j++ {
				r.NormFloat64()
			}
		}
	})
	b.Run("math_rand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < 20; j++ {
				r.NormFloat64()
			}
		}
	})
}

// TestNormFloat64sMatchesMathRand checks the bulk normal draw against
// successive math/rand NormFloat64 calls on fresh sources, on used
// sources reseeded (stale words behind a cleared ready map), and in
// mid-stream, then checks that the stream continues identically.
// Each n straddles a register wrap or fills several.
func TestNormFloat64sMatchesMathRand(t *testing.T) {
	used := New(99)
	rand.New(used).Perm(700)
	for _, seed := range identitySeeds {
		for _, n := range []int{0, 1, 606, 607, 608, 1024, 1280, 3000} {
			used.Seed(seed)
			for _, c := range []struct {
				name   string
				src    *Source
				before int // NormFloat64 draws made through rand.Rand first
			}{
				{"fresh", New(seed), 0},
				{"reseeded", used, 0},
				{"mid-stream", New(seed), 250},
			} {
				want := rand.New(rand.NewSource(seed))
				got := rand.New(c.src)
				for i := 0; i < c.before; i++ {
					want.NormFloat64()
					got.NormFloat64()
				}
				dst := make([]float64, n)
				c.src.NormFloat64s(dst)
				for i, g := range dst {
					if w := want.NormFloat64(); math.Float64bits(w) != math.Float64bits(g) {
						t.Fatalf("seed %d, n %d, %s: draw %d = %v, math/rand gives %v", seed, n, c.name, i, g, w)
					}
				}
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d, n %d, %s: Int63 after the bulk draw = %d, math/rand gives %d", seed, n, c.name, g, w)
				}
			}
		}
	}
}

// TestScalarDrawsMatchMathRand checks NormFloat64 and Float64 against
// math/rand's methods on fresh, reseeded and mid-stream sources, over
// a random interleaving with Int63 long enough to take the ziggurat's
// tail and wedge paths many times and to wrap the register, then
// checks that the stream continues identically.
func TestScalarDrawsMatchMathRand(t *testing.T) {
	used := New(99)
	rand.New(used).Perm(700)
	pick := rand.New(rand.NewSource(4))
	for _, seed := range identitySeeds {
		used.Seed(seed)
		for _, c := range []struct {
			name   string
			src    *Source
			before int // NormFloat64 draws made through rand.Rand first
		}{
			{"fresh", New(seed), 0},
			{"reseeded", used, 0},
			{"mid-stream", New(seed), 250},
		} {
			want := rand.New(rand.NewSource(seed))
			got := rand.New(c.src)
			for i := 0; i < c.before; i++ {
				want.NormFloat64()
				got.NormFloat64()
			}
			for i := 0; i < 3000; i++ {
				var w, g float64
				switch op := pick.Intn(4); op {
				case 0, 1:
					w, g = want.NormFloat64(), c.src.NormFloat64()
				case 2:
					w, g = want.Float64(), c.src.Float64()
				default:
					w, g = float64(want.Int63()), float64(c.src.Int63())
				}
				if math.Float64bits(w) != math.Float64bits(g) {
					t.Fatalf("seed %d, %s: draw %d = %v, math/rand gives %v", seed, c.name, i, g, w)
				}
			}
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d, %s: Int63 after the draws = %d, math/rand gives %d", seed, c.name, g, w)
			}
		}
	}
}

// BenchmarkNormFloat64s times 1024 normal draws from a freshly seeded
// source, the ResNet50 embedding's noise, in bulk and one by one, both
// directly and through rand.Rand.
func BenchmarkNormFloat64s(b *testing.B) {
	dst := make([]float64, 1024)
	s := New(1)
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
			s.NormFloat64s(dst)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
			for j := range dst {
				dst[j] = s.NormFloat64()
			}
		}
	})
	b.Run("rand", func(b *testing.B) {
		r := rand.New(s)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
			for j := range dst {
				dst[j] = r.NormFloat64()
			}
		}
	})
}
