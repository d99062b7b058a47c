package metric

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"litereconfig/internal/testutil"
)

func TestLatencyBasics(t *testing.T) {
	var s LatencySeries
	if s.Mean() != 0 || s.P95() != 0 || s.Max() != 0 || s.Count() != 0 {
		t.Fatal("empty series should be all zeros")
	}
	for _, v := range []float64{10, 20, 30, 40} {
		s.Add(v)
	}
	if s.Count() != 4 {
		t.Fatalf("count = %d", s.Count())
	}
	if math.Abs(s.Mean()-25) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Max() != 40 {
		t.Fatalf("max = %v", s.Max())
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s LatencySeries
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 1}, {50, 50}, {95, 95}, {100, 100}, {150, 100},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if s.P95() != 95 {
		t.Errorf("P95 = %v", s.P95())
	}
}

func TestPercentileAfterInterleavedAdds(t *testing.T) {
	// Adding after a percentile query must re-sort.
	var s LatencySeries
	s.Add(5)
	s.Add(1)
	if s.Percentile(100) != 5 {
		t.Fatal("initial max wrong")
	}
	s.Add(10)
	if s.Percentile(100) != 10 {
		t.Fatal("series did not re-sort after Add")
	}
}

func TestViolationRateAndMeetsSLO(t *testing.T) {
	var s LatencySeries
	for i := 0; i < 100; i++ {
		if i < 96 {
			s.Add(10)
		} else {
			s.Add(50)
		}
	}
	if got := s.ViolationRate(30); math.Abs(got-0.04) > 1e-12 {
		t.Fatalf("violation rate = %v, want 0.04", got)
	}
	// 4% of samples exceed 30ms, so P95 <= 30: the SLO holds.
	if !s.MeetsSLO(30) {
		t.Fatal("SLO should hold with 4% violations")
	}
	// With 6% violations it must fail.
	var s2 LatencySeries
	for i := 0; i < 100; i++ {
		if i < 94 {
			s2.Add(10)
		} else {
			s2.Add(50)
		}
	}
	if s2.MeetsSLO(30) {
		t.Fatal("SLO should fail with 6% violations")
	}
	var empty LatencySeries
	if empty.MeetsSLO(1000) {
		t.Fatal("empty series never meets an SLO")
	}
}

func TestPercentileMatchesSortedIndexQuick(t *testing.T) {
	f := func(raw []float64) bool {
		var s LatencySeries
		var clean []float64
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
			clean = append(clean, v)
		}
		if len(clean) == 0 {
			return true
		}
		sort.Float64s(clean)
		p := 95.0
		rank := int(math.Ceil(p / 100 * float64(len(clean))))
		if rank < 1 {
			rank = 1
		}
		return s.Percentile(p) == clean[rank-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s LatencySeries
	for i := 0; i < 1000; i++ {
		s.Add(rng.Float64() * 100)
	}
	if s.Mean() < s.Percentile(0) || s.Mean() > s.Max() {
		t.Fatalf("mean %v outside [min %v, max %v]", s.Mean(), s.Percentile(0), s.Max())
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown()
	b.Charge("detector", 100)
	b.Charge("tracker", 20)
	b.Charge("detector", 50)
	b.AddFrames(10)
	if b.Total("detector") != 150 {
		t.Fatalf("detector total = %v", b.Total("detector"))
	}
	if b.PerFrame("detector") != 15 {
		t.Fatalf("detector per-frame = %v", b.PerFrame("detector"))
	}
	if b.PerFrame("tracker") != 2 {
		t.Fatalf("tracker per-frame = %v", b.PerFrame("tracker"))
	}
	if b.Frames() != 10 {
		t.Fatalf("frames = %d", b.Frames())
	}
	comps := b.Components()
	if len(comps) != 2 || comps[0] != "detector" || comps[1] != "tracker" {
		t.Fatalf("components = %v", comps)
	}

	b2 := NewBreakdown()
	b2.Charge("scheduler", 5)
	b2.AddFrames(5)
	b.Merge(b2)
	if b.Frames() != 15 || b.Total("scheduler") != 5 {
		t.Fatalf("merge failed: frames=%d sched=%v", b.Frames(), b.Total("scheduler"))
	}
	if b.String() == "" {
		t.Fatal("String should not be empty")
	}
	zero := NewBreakdown()
	if zero.PerFrame("x") != 0 {
		t.Fatal("per-frame with zero frames should be 0")
	}
}

// TestPercentileSinceEdges audits the window edges: an index at or past
// the end (including an empty series) must return 0 rather than panic,
// and extreme p values on a one-sample window must both return that
// sample.
func TestPercentileSinceEdges(t *testing.T) {
	var s LatencySeries
	if got := s.PercentileSince(0, 95); got != 0 {
		t.Fatalf("empty series: got %v, want 0", got)
	}
	if got := s.Percentile(0); got != 0 {
		t.Fatalf("Percentile(0) on empty series: got %v, want 0", got)
	}
	s.Add(42)
	if got := s.PercentileSince(1, 95); got != 0 { // i == len(samples)
		t.Fatalf("i==len: got %v, want 0", got)
	}
	if got := s.PercentileSince(5, 95); got != 0 { // i past the end
		t.Fatalf("i>len: got %v, want 0", got)
	}
	for _, p := range []float64{-10, 0, 50, 100, 150} {
		if got := s.PercentileSince(0, p); got != 42 {
			t.Fatalf("1-sample window p=%v: got %v, want 42", p, got)
		}
	}
	if got := s.PercentileSince(-3, 100); got != 42 { // negative index clamps
		t.Fatalf("negative index: got %v, want 42", got)
	}
}

// TestPercentileSinceScratchReuse proves the reusable scratch buffer
// changes neither results nor the series' own state: interleaved
// windows at different offsets keep matching a fresh copy+sort, the
// chronological sample order survives, and a steady-state call
// allocates nothing.
func TestPercentileSinceScratchReuse(t *testing.T) {
	var s LatencySeries
	rng := rand.New(rand.NewSource(17))
	naive := func(i int, p float64) float64 {
		win := append([]float64(nil), s.Samples()[i:]...)
		sort.Float64s(win)
		rank := int(math.Ceil(p / 100 * float64(len(win))))
		if rank < 1 {
			rank = 1
		}
		return win[rank-1]
	}
	for n := 0; n < 400; n++ {
		s.Add(rng.Float64() * 100)
		for _, i := range []int{0, n / 2, n} {
			for _, p := range []float64{50, 95, 99} {
				if got, want := s.PercentileSince(i, p), naive(i, p); got != want {
					t.Fatalf("n=%d i=%d p=%v: got %v, want %v", n, i, p, got, want)
				}
			}
		}
	}
	before := s.Samples()
	s.PercentileSince(0, 95)
	after := s.Samples()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("PercentileSince reordered the series' samples")
		}
	}
	allocs := testutil.AllocsPerRun(t, 300, func() { s.PercentileSince(100, 95) })
	if allocs != 0 {
		t.Fatalf("steady-state PercentileSince allocates %d/op, want 0", allocs)
	}
}

// TestPercentileSinceRankBoundaries pins the nearest-rank convention on
// exact quantile boundaries: with a 20-sample window, p exactly on a
// k/20 boundary selects the k-th smallest (ceil rounds nothing), and an
// epsilon above bumps to the next rank. It also proves the window start
// is honored exactly: samples before the since-index never leak into
// the rank, and the window boundary between two segments splits the
// quantiles accordingly. The preemption controller relies on this to
// invert the configured admission quantile (tailPct) rather than a
// pre-sorted global tail.
func TestPercentileSinceRankBoundaries(t *testing.T) {
	var s LatencySeries
	// A decoy prefix of huge samples the window must exclude.
	for i := 0; i < 5; i++ {
		s.Add(1e6)
	}
	// Window: 1..20 in shuffled insertion order.
	order := []float64{13, 2, 20, 7, 16, 1, 9, 18, 4, 11, 6, 15, 3, 19, 8, 12, 5, 17, 10, 14}
	for _, v := range order {
		s.Add(v)
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{5, 1},        // ceil(0.05*20) = 1st
		{50, 10},      // exact boundary: ceil(10) = 10th
		{50.0001, 11}, // epsilon above bumps the rank
		{90, 18},      // exact boundary
		{95, 19},      // the admission default
		{99, 20},      // ceil(19.8) = 20th
		{100, 20},     // max
	}
	for _, c := range cases {
		if got := s.PercentileSince(5, c.p); got != c.want {
			t.Fatalf("p=%v over window [5:]: got %v, want %v", c.p, got, c.want)
		}
	}
	// The decoy prefix shifts the whole-series quantiles: 25 samples,
	// p50 rank ceil(12.5) = 13th smallest = 13, and the upper tail is
	// all decoy.
	if got := s.PercentileSince(0, 50); got != 13 {
		t.Fatalf("whole-series p50: got %v, want 13", got)
	}
	if got := s.PercentileSince(0, 99); got != 1e6 {
		t.Fatalf("whole-series p99 should hit the decoys: got %v", got)
	}
	// Quantile inversion across admission settings: the q-quantile of the
	// same window is monotone in q, as the preemption controller assumes
	// when it plans against 100*RiskQuantile instead of the default 95.
	prev := 0.0
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		v := s.PercentileSince(5, 100*q)
		if v < prev {
			t.Fatalf("quantile not monotone: p%v -> %v after %v", 100*q, v, prev)
		}
		prev = v
	}
}
