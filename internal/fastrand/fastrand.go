// Package fastrand is a math/rand source that seeds lazily.
//
// Invariant: for every int64 seed, rand.New(fastrand.New(seed)) yields
// exactly the same stream of values as rand.New(rand.NewSource(seed)),
// draw for draw and for every rand.Rand method. Source's own bulk
// method keeps the same stream: NormFloat64s(dst) fills dst with the
// values len(dst) NormFloat64 calls would return and leaves the source
// where they would. Swapping one for the other never changes a
// simulated result, a trace or a golden file.
//
// math/rand seeds its 607-word additive lagged Fibonacci register by
// running the Lehmer generator x ← 48271·x mod (2³¹−1) for 1 841 steps.
// Those steps dominate the cost of the many short-lived sources the
// simulator seeds per detector pass, tracker and feature draw, most of
// which make only a few draws. Because x_k = seed·48271^k mod (2³¹−1),
// word i of the seeded register is
//
//	x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} ^ rngCooked[i]
//
// and each x_k follows from one multiplication by a precomputed power.
// Source computes a word the first time a draw reads it and records
// which words are ready in a 607-bit map, so a source that draws n
// values pays for at most 2n words instead of all 607.
package fastrand

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus, prime
	lehmerA  = 48271
	// seedZero replaces a seed that is 0 mod int32max, as in math/rand.
	seedZero = 89482311
)

// pow[j] = 48271^(21+j) mod (2³¹−1): the multipliers that take a
// normalized seed to the three Lehmer states behind word j/3.
var pow = func() (t [3 * rngLen]uint32) {
	x := uint64(1)
	for k := 0; k < 20; k++ {
		x = x * lehmerA % int32max
	}
	for j := range t {
		x = x * lehmerA % int32max
		t[j] = uint32(x)
	}
	return t
}()

// Source is a rand.Source64 whose stream equals math/rand's for the
// same seed. It is not safe for concurrent use.
type Source struct {
	seed      uint64 // normalized seed in [1, 2³¹−2]
	tap, feed int
	ready     [(rngLen + 63) / 64]uint64 // bit i set: vec[i] is valid
	vec       [rngLen]int64
}

// New returns a source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the state math/rand's Seed(seed) produces.
// No register word is computed until a draw reads it.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedZero
	}
	s.seed = uint64(seed)
	s.ready = [len(s.ready)]uint64{}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// word returns register word i, computing its seeded value first if no
// draw has read it since the last Seed.
func (s *Source) word(i int) int64 {
	if s.ready[i>>6]&(1<<(uint(i)&63)) == 0 {
		s.fill(i)
	}
	return s.vec[i]
}

func (s *Source) fill(i int) {
	p := pow[3*i : 3*i+3]
	x0 := s.seed * uint64(p[0]) % int32max
	x1 := s.seed * uint64(p[1]) % int32max
	x2 := s.seed * uint64(p[2]) % int32max
	s.vec[i] = int64(x0)<<40 ^ int64(x1)<<20 ^ int64(x2) ^ rngCooked[i]
	s.ready[i>>6] |= 1 << (uint(i) & 63)
}
