package fault

import (
	"math"
	"math/rand"
	"testing"

	"litereconfig/internal/contend"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if ms, evs := in.Boundary(3); ms != 0 || evs != nil {
		t.Fatalf("nil Boundary = %v, %v", ms, evs)
	}
	if in.ExtractFails(3, "hoc") || in.PanicDue(3) {
		t.Fatal("nil injector fired a fault")
	}
	if in.Contention(3) != 0 {
		t.Fatal("nil injector reported contention")
	}
	if len(in.Counts()) != 0 {
		t.Fatal("nil injector has counts")
	}
}

func TestRateDrawsAreOrderIndependent(t *testing.T) {
	cfg := Config{Seed: 9, SpikeRate: 0.3, ExtractFailRate: 0.3, StallRate: 0.2}
	forward := NewInjector(cfg, 5)
	backward := NewInjector(cfg, 5)

	type sample struct {
		ms   float64
		fail bool
	}
	const n = 50
	fwd := make([]sample, n)
	for f := 0; f < n; f++ {
		ms, _ := forward.Boundary(f)
		fwd[f] = sample{ms: ms, fail: forward.ExtractFails(f, "hog")}
	}
	for f := n - 1; f >= 0; f-- {
		ms, _ := backward.Boundary(f)
		if ms != fwd[f].ms {
			t.Fatalf("frame %d spike diverged under reversed query order: %v vs %v",
				f, ms, fwd[f].ms)
		}
		if got := backward.ExtractFails(f, "hog"); got != fwd[f].fail {
			t.Fatalf("frame %d extract_fail diverged under reversed query order", f)
		}
	}
	fired := 0
	for _, s := range fwd {
		if s.ms > 0 {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("no spike or stall fired over 50 boundaries at rate 0.3+0.2")
	}
}

func TestStreamSeedsDecorrelateSchedules(t *testing.T) {
	cfg := Config{Seed: 9, SpikeRate: 0.3}
	a, b := NewInjector(cfg, 1), NewInjector(cfg, 2)
	same := true
	for f := 0; f < 80; f++ {
		msA, _ := a.Boundary(f)
		msB, _ := b.Boundary(f)
		if (msA > 0) != (msB > 0) {
			same = false
		}
	}
	if same {
		t.Fatal("two streams with distinct seeds drew identical spike schedules")
	}
}

func TestPlanEventsAreOneShot(t *testing.T) {
	in := FromPlan(Plan{Events: []Event{
		{Class: WorkerPanic, Frame: 10},
		{Class: LatencySpike, Frame: 4, MS: 100},
		{Class: ExtractFail, Frame: 0, Feature: "hoc"},
	}})
	if in.PanicDue(9) {
		t.Fatal("panic fired before its frame")
	}
	if !in.PanicDue(12) {
		t.Fatal("panic did not fire at/after its frame")
	}
	if in.PanicDue(12) || in.PanicDue(100) {
		t.Fatal("one-shot panic fired twice")
	}
	ms, evs := in.Boundary(4)
	if ms != 100 || len(evs) != 1 || evs[0].Class != LatencySpike {
		t.Fatalf("spike = %v, %v", ms, evs)
	}
	if ms, _ := in.Boundary(4); ms != 0 {
		t.Fatal("one-shot spike fired twice")
	}
	if in.ExtractFails(0, "hog") {
		t.Fatal("hoc-targeted failure hit hog")
	}
	if !in.ExtractFails(0, "hoc") {
		t.Fatal("targeted extract failure did not fire")
	}
	if in.ExtractFails(0, "hoc") {
		t.Fatal("one-shot extract failure fired twice")
	}
	counts := in.Counts()
	if counts["panic"] != 1 || counts["spike"] != 1 || counts["extract_fail"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestBurstWindowAndWrapContention(t *testing.T) {
	in := FromPlan(Plan{Events: []Event{
		{Class: ContentionBurst, Frame: 10, Level: 0.5, Frames: 5},
	}})
	for _, tc := range []struct {
		frame int
		want  float64
	}{{9, 0}, {10, 0.5}, {14, 0.5}, {15, 0}} {
		if got := in.Contention(tc.frame); got != tc.want {
			t.Fatalf("Contention(%d) = %v, want %v", tc.frame, got, tc.want)
		}
	}
	g := WrapContention(contend.Fixed{G: 0.2}, in)
	if got := g.Level(12); got != 0.7 {
		t.Fatalf("wrapped level = %v, want 0.7", got)
	}
	if got := g.Level(0); got != 0.2 {
		t.Fatalf("wrapped level outside burst = %v, want 0.2", got)
	}
	// Clamped at the generator ceiling.
	hot := WrapContention(contend.Fixed{G: 0.9}, in)
	if got := hot.Level(12); got != 0.99 {
		t.Fatalf("wrapped level = %v, want clamp at 0.99", got)
	}
	if WrapContention(contend.Fixed{G: 0.2}, nil).Name() != "fixed20%" {
		t.Fatal("nil injector must not wrap the generator")
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("spike=0.05, extract=0.1,burst=0.02,stall=0.01,panic=0.005,seed=42,spike_ms=80,stall_ms=300,burst_level=0.5,burst_frames=40")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 42, SpikeRate: 0.05, SpikeMS: 80, ExtractFailRate: 0.1,
		BurstRate: 0.02, BurstLevel: 0.5, BurstFrames: 40,
		StallRate: 0.01, StallMS: 300, PanicRate: 0.005}
	if *cfg != want {
		t.Fatalf("parsed %+v, want %+v", *cfg, want)
	}
	if !cfg.Enabled() {
		t.Fatal("parsed config should be enabled")
	}
	if (Config{}).Enabled() {
		t.Fatal("zero config should be disabled")
	}
	for _, bad := range []string{"spike", "spike=x", "bogus=1",
		"spike=NaN", "panic=-1", "extract=7", "stall=+Inf", "spike_ms=-5", "burst_level=Inf",
		"crash=2.7", "crash=1e300", "seed=1e30", "burst_frames=3.0", "blackout=99999999999999999999", "crash=-3", "blackout_rounds=-1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q should not parse", bad)
		}
	}
	// Errors name the token and its position.
	_, err = ParseSpec("spike=0.1, crash=2.7")
	if err == nil || !contains(err.Error(), `"crash=2.7"`) || !contains(err.Error(), "position 2") {
		t.Fatalf("error %v does not name the token and its position", err)
	}
	if cfg, err := ParseSpec(""); err != nil || cfg.Enabled() {
		t.Fatalf("empty spec: %v, %+v", err, cfg)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{SpikeRate: 1, StallRate: 1, BurstRate: 1}.withDefaults()
	if c.SpikeMS != DefaultSpikeMS || c.StallMS != DefaultStallMS ||
		c.BurstLevel != DefaultBurstLevel || c.BurstFrames != DefaultBurstFrames {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

func TestParseSpecFailStop(t *testing.T) {
	cfg, err := ParseSpec("crash=8")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CrashRound != 8 {
		t.Fatalf("CrashRound = %d, want 8", cfg.CrashRound)
	}
	// A crash-only board config must NOT be "enabled": enabling it would
	// hand every stream on the board a fault injector for rates that are
	// all zero, perturbing decision traces for no reason. The fleet reads
	// the fail-stop schedule directly off the config.
	if cfg.Enabled() {
		t.Fatal("crash-only config must not enable stream-level injection")
	}

	cfg, err = ParseSpec("blackout=5,blackout_rounds=2")
	if err != nil {
		t.Fatal(err)
	}
	start, end := cfg.BlackoutWindow()
	if start != 5 || end != 7 {
		t.Fatalf("blackout window = [%d,%d), want [5,7)", start, end)
	}
	// Default window length applies when blackout_rounds is omitted.
	cfg, err = ParseSpec("blackout=5")
	if err != nil {
		t.Fatal(err)
	}
	if start, end = cfg.BlackoutWindow(); end-start != DefaultBlackoutRounds {
		t.Fatalf("default blackout window = [%d,%d), want %d rounds", start, end, DefaultBlackoutRounds)
	}
	// No blackout scheduled: empty window.
	if s, e := (&Config{}).BlackoutWindow(); s != 0 || e != 0 {
		t.Fatalf("zero config window = [%d,%d), want [0,0)", s, e)
	}
}

func TestValidateBoardsRejectsUnknownLabel(t *testing.T) {
	specs, err := ParseBoardSpecs("spike=0.01;b1:crash=4;b9:panic=0.3")
	if err != nil {
		t.Fatal(err)
	}
	err = ValidateBoards(specs, []string{"b0", "b1", "b2"})
	if err == nil {
		t.Fatal("unknown board b9 not rejected")
	}
	// The error must name the bad label and the known set, so the typo
	// is diagnosable from the message alone.
	for _, want := range []string{"b9", "b0", "b1", "b2"} {
		if !contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}

	// The fleet-wide "*" default and exact labels pass.
	specs, err = ParseBoardSpecs("stall=0.01;b2:crash=3")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBoards(specs, []string{"b0", "b1", "b2"}); err != nil {
		t.Fatalf("valid specs rejected: %v", err)
	}
	if err := ValidateBoards(nil, []string{"b0"}); err != nil {
		t.Fatalf("nil specs rejected: %v", err)
	}
}

// contains reports substring presence without importing strings just
// for tests.
func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// checkRanges fails unless cfg's rates lie in [0, 1], its magnitudes
// are finite and >= 0 and its counts >= 0, as ParseSpec promises for
// every config it accepts.
func checkRanges(t *testing.T, spec string, cfg *Config) {
	t.Helper()
	for _, r := range []float64{cfg.SpikeRate, cfg.ExtractFailRate, cfg.BurstRate, cfg.StallRate, cfg.PanicRate} {
		if !(r >= 0 && r <= 1) {
			t.Fatalf("spec %q accepted with rate %v: %+v", spec, r, *cfg)
		}
	}
	for _, m := range []float64{cfg.SpikeMS, cfg.BurstLevel, cfg.StallMS} {
		if !(m >= 0 && m <= math.MaxFloat64) {
			t.Fatalf("spec %q accepted with magnitude %v: %+v", spec, m, *cfg)
		}
	}
	if cfg.BurstFrames < 0 || cfg.CrashRound < 0 || cfg.BlackoutRound < 0 || cfg.BlackoutRounds < 0 {
		t.Fatalf("spec %q accepted with a negative count: %+v", spec, *cfg)
	}
}

func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{"", "spike=0.05,extract=0.1,burst=0.02,stall=0.01,panic=0.005,seed=42",
		"spike_ms=80,stall_ms=300,burst_level=0.5,burst_frames=40", "crash=8", "blackout=5,blackout_rounds=2",
		"extract_fail=1", "spike=NaN", "crash=2.7", "seed=1e30", "spike=0x1p-2", "spike=0.1,spike=0.2"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		checkRanges(t, spec, cfg)
	})
}

func FuzzParseBoardSpecs(f *testing.F) {
	for _, seed := range []string{"", "spike=0.01;b1:panic=0.3,seed=5", "b1:crash=6;b2:blackout=4",
		":spike=0.1", "b1:crash=4;b1:panic=0.1", "a=b:c", "b1:spike=2"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		specs, err := ParseBoardSpecs(spec)
		if err != nil {
			return
		}
		for board, cfg := range specs {
			if board == "" || cfg == nil {
				t.Fatalf("spec %q accepted with board %q -> %v", spec, board, cfg)
			}
			checkRanges(t, spec, cfg)
		}
	})
}

// TestDrawMatchesFreshSource checks the injector's reused, reseeded
// source against a fresh math/rand source for every draw key.
func TestDrawMatchesFreshSource(t *testing.T) {
	in := NewInjector(Config{Seed: 9, SpikeRate: 0.5}, 4)
	for frame := 0; frame < 50; frame++ {
		for class := Class(0); int(class) < NumClasses; class++ {
			h := in.seed
			h = h*1000003 + int64(class+1)*7919
			h = h*1000003 + int64(frame)*2654435761
			h = h*1000003 + int64(frame%3)
			want := rand.New(rand.NewSource(h))
			got := in.draw(class, frame, int64(frame%3))
			for i := 0; i < 4; i++ {
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("class %v frame %d draw %d: %v, fresh source gives %v", class, frame, i, g, w)
				}
			}
			if g, w := got.Intn(7), want.Intn(7); g != w {
				t.Fatalf("class %v frame %d: Intn %d, fresh source gives %d", class, frame, g, w)
			}
		}
	}
}
