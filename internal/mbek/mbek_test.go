package mbek

import (
	"math"
	"strings"
	"testing"

	"litereconfig/internal/detect"
	"litereconfig/internal/simlat"
	"litereconfig/internal/track"
	"litereconfig/internal/vid"
)

func TestBranchString(t *testing.T) {
	b := Branch{Shape: 448, NProp: 20, Tracker: track.KCF, GoF: 8, DS: 2}
	if got := b.String(); got != "s448_n20_kcf_g8_d2" {
		t.Fatalf("String = %q", got)
	}
	d := Branch{Shape: 576, NProp: 100, GoF: 1}
	if got := d.String(); got != "s576_n100_det" {
		t.Fatalf("detector-only String = %q", got)
	}
}

func TestDefaultBranches(t *testing.T) {
	bs := DefaultBranches()
	want := 4 * 4 * (1 + 4*4*2)
	if len(bs) != want {
		t.Fatalf("branch count = %d, want %d", len(bs), want)
	}
	// All distinct.
	idx := BranchIndex(bs)
	if len(idx) != len(bs) {
		t.Fatal("duplicate branches in default space")
	}
	// Stable order.
	bs2 := DefaultBranches()
	for i := range bs {
		if bs[i] != bs2[i] {
			t.Fatal("branch enumeration not stable")
		}
	}
	for _, b := range bs {
		if b.GoF == 1 && (b.Tracker != track.KCF || b.DS != 1) {
			t.Fatalf("detector-only branch not normalized: %v", b)
		}
		if w := b.Weight(); w <= 0 || w > 1 {
			t.Fatalf("weight out of range for %v: %v", b, w)
		}
	}
}

func TestMinCostBranch(t *testing.T) {
	bs := DefaultBranches()
	mc := MinCostBranch(bs)
	// The cheapest branch must have the smallest shape/nprop and the
	// longest GoF.
	if mc.Shape != 224 || mc.NProp != 1 || mc.GoF != 20 {
		t.Fatalf("min-cost branch = %v", mc)
	}
	if mc.Tracker != track.MedianFlow {
		t.Fatalf("min-cost tracker = %v, want medianflow", mc.Tracker)
	}
}

func TestSwitchCostProperties(t *testing.T) {
	light := Branch{Shape: 224, NProp: 1, Tracker: track.KCF, GoF: 8, DS: 1}
	heavy := Branch{Shape: 576, NProp: 100, Tracker: track.KCF, GoF: 8, DS: 1}
	if SwitchCostMS(light, light) != 0 {
		t.Fatal("self-switch must be free")
	}
	// Heavier destination costs more.
	if SwitchCostMS(light, heavy) <= SwitchCostMS(heavy, light) {
		t.Fatalf("heavy destination should dominate: l->h %v vs h->l %v",
			SwitchCostMS(light, heavy), SwitchCostMS(heavy, light))
	}
	// Light source costs more than heavy source for same destination.
	mid := Branch{Shape: 448, NProp: 20, Tracker: track.KCF, GoF: 8, DS: 1}
	if SwitchCostMS(light, mid) <= SwitchCostMS(heavy, mid) {
		t.Fatal("light source should cost more than heavy source")
	}
	// Typical costs are below 10 ms (Figure 5a).
	bs := DefaultBranches()
	over := 0
	for i := 0; i < len(bs); i += 7 {
		for j := 0; j < len(bs); j += 7 {
			c := SwitchCostMS(bs[i], bs[j])
			if c < 0 {
				t.Fatalf("negative switch cost %v", c)
			}
			if c > 10 {
				over++
			}
		}
	}
	if over > 0 {
		t.Fatalf("%d sampled switch costs exceed 10 ms", over)
	}
	// Tracker change adds cost.
	a := Branch{Shape: 448, NProp: 20, Tracker: track.KCF, GoF: 8, DS: 1}
	b := Branch{Shape: 448, NProp: 20, Tracker: track.CSRT, GoF: 8, DS: 1}
	if SwitchCostMS(a, b) <= SwitchCostMS(a, Branch{Shape: 448, NProp: 20, Tracker: track.KCF, GoF: 4, DS: 1}) {
		t.Fatal("tracker change should cost more than GoF change")
	}
}

func testVideo(seed int64) *vid.Video {
	return vid.Generate("v", seed, vid.GenConfig{Frames: 60})
}

func TestKernelExecutionPattern(t *testing.T) {
	v := testVideo(1)
	clock := simlat.NewClock(simlat.TX2, 1)
	k := NewKernel(detect.FasterRCNN, clock)
	k.Start(v)
	b := Branch{Shape: 448, NProp: 20, Tracker: track.KCF, GoF: 4, DS: 1}
	k.SetBranch(b, 0)

	for i := 0; i < 12; i++ {
		if (i%4 == 0) != k.AtGoFBoundary() {
			t.Fatalf("frame %d: boundary state wrong", i)
		}
		before := clock.Breakdown().Total(CompDetector)
		k.ProcessFrame(v.Frames[i])
		after := clock.Breakdown().Total(CompDetector)
		ranDetector := after > before
		if (i%4 == 0) != ranDetector {
			t.Fatalf("frame %d: detector ran = %v, want %v", i, ranDetector, i%4 == 0)
		}
	}
	// 3 detector passes, 9 tracker steps charged.
	bd := clock.Breakdown()
	if bd.Total(CompDetector) <= 0 || bd.Total(CompTracker) <= 0 {
		t.Fatal("missing charges")
	}
}

func TestKernelDetectorOnlyBranch(t *testing.T) {
	v := testVideo(2)
	clock := simlat.NewClock(simlat.TX2, 1)
	k := NewKernel(detect.FasterRCNN, clock)
	k.Start(v)
	k.SetBranch(Branch{Shape: 320, NProp: 5, GoF: 1, Tracker: track.KCF, DS: 1}, 0)
	for i := 0; i < 5; i++ {
		if !k.AtGoFBoundary() {
			t.Fatal("GoF=1 should always be at boundary")
		}
		k.ProcessFrame(v.Frames[i])
	}
	if clock.Breakdown().Total(CompTracker) != 0 {
		t.Fatal("detector-only branch should never charge tracker")
	}
}

func TestKernelSwitchCharging(t *testing.T) {
	v := testVideo(3)
	clock := simlat.NewClock(simlat.TX2, 1)
	k := NewKernel(detect.FasterRCNN, clock)
	k.ColdMisses = false
	k.Start(v)
	a := Branch{Shape: 224, NProp: 1, Tracker: track.KCF, GoF: 2, DS: 1}
	b := Branch{Shape: 576, NProp: 100, Tracker: track.KCF, GoF: 2, DS: 1}
	// First configuration is free (model preloading, footnote 6).
	if c := k.SetBranch(a, 0); c != 0 {
		t.Fatalf("first SetBranch charged %v", c)
	}
	k.ProcessFrame(v.Frames[0])
	k.ProcessFrame(v.Frames[1])
	c := k.SetBranch(b, 2)
	if math.Abs(c-SwitchCostMS(a, b)) > 1e-9 {
		t.Fatalf("switch charged %v, want %v", c, SwitchCostMS(a, b))
	}
	if k.Switches() != 1 {
		t.Fatalf("switches = %d", k.Switches())
	}
	if got := k.SetBranch(b, 2); got != 0 {
		t.Fatal("re-setting same branch should be free")
	}
	log := k.SwitchLog()
	if len(log) != 1 || log[0].From != a || log[0].To != b || log[0].Frame != 2 {
		t.Fatalf("switch log wrong: %+v", log)
	}
	k.ProcessFrame(v.Frames[2])
	if k.BranchCoverage() != 2 {
		t.Fatalf("coverage = %d, want 2", k.BranchCoverage())
	}
}

func TestKernelPanicsOnMisuse(t *testing.T) {
	v := testVideo(4)
	clock := simlat.NewClock(simlat.TX2, 1)
	k := NewKernel(detect.FasterRCNN, clock)
	k.Start(v)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ProcessFrame before SetBranch should panic")
			}
		}()
		k.ProcessFrame(v.Frames[0])
	}()
	k.SetBranch(Branch{Shape: 448, NProp: 20, Tracker: track.KCF, GoF: 4, DS: 1}, 0)
	k.ProcessFrame(v.Frames[0])
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetBranch mid-GoF should panic")
			}
		}()
		k.SetBranch(Branch{Shape: 224, NProp: 1, Tracker: track.KCF, GoF: 4, DS: 1}, 1)
	}()
}

// TestEvalBranchGroupMatchesSingleBranches checks that sharing detector
// passes across a group changes no branch's result: each branch of a
// mixed group (detector-only, every tracker, several GoF sizes and ds,
// with seeds that collide across branches) gives bit-identical metrics
// and latency series to evaluating it alone.
func TestEvalBranchGroupMatchesSingleBranches(t *testing.T) {
	v := testVideo(9)
	s := v.Snippets(60)[0]
	bs := []Branch{{Shape: 320, NProp: 20, GoF: 1, Tracker: track.KCF, DS: 1}}
	var seeds []int64
	for _, tk := range track.Kinds() {
		for _, gof := range []int{2, 4, 20} {
			for _, ds := range []int{1, 4} {
				bs = append(bs, Branch{Shape: 320, NProp: 20, Tracker: tk, GoF: gof, DS: ds})
			}
		}
	}
	for i := range bs {
		seeds = append(seeds, int64(11+i%5))
	}
	evs, series := EvalBranchGroup(detect.FasterRCNN, s, bs, simlat.TX2, 0.2, seeds)
	for i, b := range bs {
		ev, ser := EvalBranchGroup(detect.FasterRCNN, s, []Branch{b}, simlat.TX2, 0.2, seeds[i:i+1])
		if evs[i] != ev[0] {
			t.Fatalf("%v: in group %+v, alone %+v", b, evs[i], ev[0])
		}
		if len(series[i]) != len(ser[0]) {
			t.Fatalf("%v: series length %d in group, %d alone", b, len(series[i]), len(ser[0]))
		}
		for j := range ser[0] {
			if math.Float64bits(series[i][j]) != math.Float64bits(ser[0][j]) {
				t.Fatalf("%v: frame %d latency %v in group, %v alone", b, j, series[i][j], ser[0][j])
			}
		}
	}
}

func TestEvalBranchGroupRejectsMixedDetectorConfigs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a group mixing detector configurations should panic")
		}
	}()
	v := testVideo(9)
	bs := []Branch{{Shape: 320, NProp: 20, GoF: 1}, {Shape: 320, NProp: 100, GoF: 1}}
	EvalBranchGroup(detect.FasterRCNN, v.Snippets(30)[0], bs, simlat.TX2, 0, []int64{1, 2})
}

func TestEvalBranchDeterministicAndSane(t *testing.T) {
	v := testVideo(5)
	s := v.Snippets(30)[0]
	b := Branch{Shape: 576, NProp: 100, Tracker: track.KCF, GoF: 4, DS: 1}
	e1 := EvalBranch(detect.FasterRCNN, s, b, simlat.TX2, 0, 7)
	e2 := EvalBranch(detect.FasterRCNN, s, b, simlat.TX2, 0, 7)
	if e1 != e2 {
		t.Fatal("EvalBranch not deterministic")
	}
	if e1.MAP < 0 || e1.MAP > 1 {
		t.Fatalf("mAP out of range: %v", e1.MAP)
	}
	if e1.MeanMS <= 0 {
		t.Fatal("mean latency must be positive")
	}
	if e1.DetMS <= 0 || e1.TrkMS <= 0 {
		t.Fatalf("breakdown missing: %+v", e1)
	}
	if e1.MeanMS < e1.DetMS+e1.TrkMS-1e-9 {
		t.Fatal("mean must cover detector + tracker")
	}
}

func TestEvalBranchTradeoffs(t *testing.T) {
	v := testVideo(6)
	s := v.Snippets(40)[0]
	heavy := Branch{Shape: 576, NProp: 100, Tracker: track.KCF, GoF: 2, DS: 1}
	light := Branch{Shape: 224, NProp: 1, Tracker: track.MedianFlow, GoF: 20, DS: 4}
	eh := EvalBranch(detect.FasterRCNN, s, heavy, simlat.TX2, 0, 7)
	el := EvalBranch(detect.FasterRCNN, s, light, simlat.TX2, 0, 7)
	if eh.MeanMS <= el.MeanMS {
		t.Fatalf("heavy branch should cost more: %v vs %v", eh.MeanMS, el.MeanMS)
	}
	if eh.MAP <= el.MAP {
		t.Fatalf("heavy branch should be more accurate: %v vs %v", eh.MAP, el.MAP)
	}
}

func TestEvalBranchContentionRaisesLatency(t *testing.T) {
	v := testVideo(7)
	s := v.Snippets(30)[0]
	b := Branch{Shape: 448, NProp: 20, Tracker: track.KCF, GoF: 4, DS: 1}
	e0 := EvalBranch(detect.FasterRCNN, s, b, simlat.TX2, 0, 7)
	e50 := EvalBranch(detect.FasterRCNN, s, b, simlat.TX2, 0.5, 7)
	if e50.MeanMS <= e0.MeanMS*1.2 {
		t.Fatalf("contention did not raise latency: %v -> %v", e0.MeanMS, e50.MeanMS)
	}
	// Accuracy is unaffected by contention (only latency is).
	if math.Abs(e50.MAP-e0.MAP) > 1e-9 {
		t.Fatalf("contention changed accuracy: %v vs %v", e0.MAP, e50.MAP)
	}
}

func TestBranchNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range DefaultBranches() {
		s := b.String()
		if seen[s] {
			t.Fatalf("duplicate branch name %q", s)
		}
		if !strings.HasPrefix(s, "s") {
			t.Fatalf("unexpected name format %q", s)
		}
		seen[s] = true
	}
}
