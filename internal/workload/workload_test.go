package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
)

func testConfig(seed int64) Config {
	return Config{
		Seed:      seed,
		HorizonMS: 4000,
		Processes: []Process{Constant{PerSec: 2}, Flash{AtMS: 1000, DurationMS: 1000, PerSec: 6}},
		MinFrames: 24, MaxFrames: 72, TailAlpha: 1.5,
	}
}

// The whole point of the generator: a fixed seed is a pure function of
// the config — same arrival times, tiers, tenants, lengths and seeds.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Arrivals) == 0 {
		t.Fatal("no arrivals generated")
	}
	if !reflect.DeepEqual(a.Arrivals, b.Arrivals) {
		t.Fatal("same config, different arrival schedules")
	}
	c, err := Generate(testConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Arrivals, c.Arrivals) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// Arrivals must respect the horizon, be time-ordered, stay within the
// session-length bounds, and only carry tiers from the configured set.
func TestGenerateBounds(t *testing.T) {
	cfg := testConfig(7)
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tiers := map[string]bool{}
	for _, tr := range DefaultTiers() {
		tiers[tr.Name] = true
	}
	last := 0.0
	seeds := map[int64]bool{}
	for i, a := range s.Arrivals {
		if a.Index != i {
			t.Fatalf("arrival %d has Index %d", i, a.Index)
		}
		if a.AtMS < last || a.AtMS >= cfg.HorizonMS {
			t.Fatalf("arrival %d at %.1fms out of order or past horizon", i, a.AtMS)
		}
		last = a.AtMS
		if !tiers[a.Tier.Name] {
			t.Fatalf("arrival %d has unknown tier %q", i, a.Tier.Name)
		}
		if a.Frames < cfg.MinFrames || a.Frames > cfg.MaxFrames {
			t.Fatalf("arrival %d session length %d outside [%d, %d]",
				i, a.Frames, cfg.MinFrames, cfg.MaxFrames)
		}
		if a.Tenant == "" {
			t.Fatalf("arrival %d has no tenant", i)
		}
		if seeds[a.Seed] {
			t.Fatalf("arrival %d reuses stream seed %d", i, a.Seed)
		}
		seeds[a.Seed] = true
	}
}

// StreamConfig materialization must be deterministic and carry the
// tier's SLO, class, and the arrival's tenant and seed.
func TestArrivalStreamConfig(t *testing.T) {
	s, err := Generate(testConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	a := s.Arrivals[0]
	c1, c2 := a.StreamConfig(), a.StreamConfig()
	if c1.Name != c2.Name || c1.Seed != c2.Seed {
		t.Fatal("StreamConfig not deterministic")
	}
	if !reflect.DeepEqual(c1.Video, c2.Video) {
		t.Fatal("video generation not deterministic")
	}
	if c1.SLO != a.Tier.SLOMS || c1.Class != a.Tier.Name || c1.Tenant != a.Tenant {
		t.Fatalf("StreamConfig %+v does not match arrival %+v", c1, a)
	}
	if len(c1.Video.Frames) != a.Frames {
		t.Fatalf("video has %d frames, arrival says %d", len(c1.Video.Frames), a.Frames)
	}
}

// Take must hand out arrivals in order as virtual time passes, and
// Reset must rewind for the next ablation run.
func TestScheduleTakeAndReset(t *testing.T) {
	s, err := Generate(testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	var got int
	for now := 0.0; now <= testConfig(5).HorizonMS+200; now += 200 {
		for _, cfg := range s.Take(now) {
			if cfg.Video == nil {
				t.Fatal("materialized config without video")
			}
			got++
		}
	}
	if got != len(s.Arrivals) {
		t.Fatalf("Take handed out %d of %d arrivals", got, len(s.Arrivals))
	}
	if !s.Exhausted() {
		t.Fatal("schedule not exhausted after full sweep")
	}
	s.Reset()
	if s.Exhausted() {
		t.Fatal("Reset did not rewind")
	}
	if n := len(s.Take(testConfig(5).HorizonMS)); n != len(s.Arrivals) {
		t.Fatalf("after Reset, Take(horizon) = %d arrivals, want %d", n, len(s.Arrivals))
	}
}

// Rate processes: diurnal starts at its trough and peaks mid-period;
// flash is a rectangle; peaks bound rates.
func TestProcessShapes(t *testing.T) {
	d := Diurnal{Base: 1, Amplitude: 4, PeriodMS: 2000}
	if got := d.Rate(0); math.Abs(got-1) > 1e-9 {
		t.Fatalf("diurnal trough = %v, want 1", got)
	}
	if got := d.Rate(1000); math.Abs(got-5) > 1e-9 {
		t.Fatalf("diurnal peak = %v, want 5", got)
	}
	fl := Flash{AtMS: 100, DurationMS: 50, PerSec: 9}
	if fl.Rate(99) != 0 || fl.Rate(100) != 9 || fl.Rate(149) != 9 || fl.Rate(150) != 0 {
		t.Fatal("flash rectangle edges wrong")
	}
	for _, p := range []Process{d, fl, Constant{PerSec: 3}} {
		for tMS := 0.0; tMS < 4000; tMS += 37 {
			if p.Rate(tMS) > p.Peak()+1e-9 {
				t.Fatalf("%T rate %v exceeds peak %v at t=%v", p, p.Rate(tMS), p.Peak(), tMS)
			}
		}
	}
}

// Tier shares must roughly steer the mix: with enough arrivals the
// best-effort majority outnumbers the gold minority.
func TestTierShares(t *testing.T) {
	cfg := testConfig(3)
	cfg.HorizonMS = 60000
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	by := s.ByTier()
	if by["besteffort"] <= by["gold"] {
		t.Fatalf("tier mix %v: best-effort (share 0.5) should outnumber gold (share 0.2)", by)
	}
	total := 0
	for _, n := range by {
		total += n
	}
	if total != len(s.Arrivals) {
		t.Fatalf("ByTier total %d != %d arrivals", total, len(s.Arrivals))
	}
}

func TestScenarios(t *testing.T) {
	for _, name := range ScenarioNames() {
		for _, scale := range ScaleNames() {
			cfg, err := Scenario(name, scale, 7)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, scale, err)
			}
			s, err := Generate(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, scale, err)
			}
			if len(s.Arrivals) == 0 {
				t.Fatalf("%s/%s generated no arrivals", name, scale)
			}
		}
	}
	if _, err := Scenario("nope", "small", 1); err == nil {
		t.Fatal("unknown scenario must error")
	}
	if _, err := Scenario("diurnal", "huge", 1); err == nil {
		t.Fatal("unknown scale must error")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Seed: 1}); err == nil {
		t.Fatal("missing horizon/processes must error")
	}
	if _, err := Generate(Config{Seed: 1, HorizonMS: 100}); err == nil {
		t.Fatal("missing processes must error")
	}
	bad := testConfig(1)
	bad.Tiers = []Tier{{Name: "x", Share: -1}}
	if _, err := Generate(bad); err == nil {
		t.Fatal("negative share must error")
	}
	zero := testConfig(1)
	zero.Tiers = []Tier{{Name: "x", Share: 0}}
	if _, err := Generate(zero); err == nil {
		t.Fatal("zero share sum must error")
	}
}

// Heavy-tailed session lengths: a smaller alpha must push more mass
// toward the long end of the range.
func TestHeavyTailLengths(t *testing.T) {
	mean := func(alpha float64) float64 {
		cfg := testConfig(9)
		cfg.HorizonMS = 30000
		cfg.MinFrames, cfg.MaxFrames, cfg.TailAlpha = 24, 240, alpha
		s, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, a := range s.Arrivals {
			sum += a.Frames
		}
		return float64(sum) / float64(len(s.Arrivals))
	}
	if heavy, light := mean(1.05), mean(3.0); heavy <= light {
		t.Fatalf("alpha 1.05 mean %0.1f should exceed alpha 3.0 mean %0.1f", heavy, light)
	}
}

// TestGenerateDigestGolden pins arrival schedules across commits: the
// digest was recorded from the math/rand-seeded generator, so a change
// of random source must reproduce every draw.
func TestGenerateDigestGolden(t *testing.T) {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	cfgs := []Config{testConfig(1), testConfig(42), testConfig(-3)}
	for i, name := range ScenarioNames() {
		c, err := Scenario(name, "small", int64(11+i))
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, c)
	}
	n := 0
	for _, c := range cfgs {
		s, err := Generate(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range s.Arrivals {
			h.Write([]byte(a.Tier.Name + "/" + a.Tenant + "/"))
			put(uint64(a.Index), math.Float64bits(a.AtMS), uint64(a.Frames), uint64(a.Seed))
			n++
		}
	}
	const want = 0xfe4545140485b895
	if got := h.Sum64(); got != want || n == 0 {
		t.Errorf("schedule digest %#x over %d arrivals, want %#x", got, n, uint64(want))
	}
}
