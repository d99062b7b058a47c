package report

// Shape-level checks of the artifact's major claims C1-C4 (Appendix
// A.4.1). Absolute numbers cannot transfer from the authors' Jetson
// testbed to a simulator, so these tests assert the *orderings and
// rough factors* the claims rest on; EXPERIMENTS.md records the measured
// values next to the paper's.

import (
	"testing"

	"litereconfig/internal/simlat"
)

// TestClaimC1 — LiteReconfig sustains 30 fps (33.3 ms) on the TX2 and
// 50 fps (20 ms) on the Xavier under no contention, at useful accuracy.
func TestClaimC1(t *testing.T) {
	tx2 := table2Row(t, "LiteReconfig", Scenario{Device: simlat.TX2, SLO: 33.3})
	if !tx2.Meets {
		t.Errorf("C1: TX2 33.3 ms violated (p95=%.1f)", tx2.P95)
	}
	xv := table2Row(t, "LiteReconfig", Scenario{Device: simlat.Xavier, SLO: 20})
	if !xv.Meets {
		t.Errorf("C1: Xavier 20 ms violated (p95=%.1f)", xv.P95)
	}
	if tx2.MAP < 0.30 || xv.MAP < 0.30 {
		t.Errorf("C1: accuracy too low (tx2=%.3f xv=%.3f)", tx2.MAP, xv.MAP)
	}
}

// TestClaimC2 — LiteReconfig improves accuracy over the SOTA adaptive
// system (ApproxDet) at the same latency objective (paper: +1.8 to +3.5
// mAP at 100 ms).
func TestClaimC2(t *testing.T) {
	for _, g := range []float64{0, 0.5} {
		sc := Scenario{Device: simlat.TX2, SLO: 100, Contention: g}
		lr, ad := table2Row(t, "LiteReconfig", sc), table2Row(t, "ApproxDet", sc)
		if lr.MAP <= ad.MAP {
			t.Errorf("C2: LiteReconfig (%.3f) should beat ApproxDet (%.3f) at 100 ms, %.0f%% contention",
				lr.MAP, ad.MAP, g*100)
		}
	}
}

// TestClaimC3 — LiteReconfig at 33.3 ms is tens of times faster than
// SELSA, MEGA and REPP on the TX2 (paper: 74.9x, 30.5x, 20.3x).
func TestClaimC3(t *testing.T) {
	mean := map[string]float64{}
	for _, r := range results(t).Table3 {
		if !r.OOM {
			mean[r.Label] = r.MeanMS
		}
	}
	lr := mean["LiteReconfig, 33.3 ms"]
	if lr <= 0 {
		t.Fatal("missing LiteReconfig row")
	}
	checks := []struct {
		label string
		min   float64
	}{
		{"SELSA-ResNet-50", 30},
		{"MEGA-ResNet-50-base", 12},
		{"REPP-over-YOLOv3", 8},
	}
	for _, c := range checks {
		if speedup := mean[c.label] / lr; speedup < c.min {
			t.Errorf("C3: speedup over %s = %.1fx, want >= %.0fx", c.label, speedup, c.min)
		}
	}
}

// TestClaimC4 — the full cost-benefit scheduler is not worse than the
// greedy MaxContent-ResNet variant in the paper's two comparison cells
// (paper: +1.0 and +2.2 mAP).
func TestClaimC4(t *testing.T) {
	cells := []Scenario{
		{Device: simlat.TX2, Contention: 0, SLO: 33.3},
		{Device: simlat.TX2, Contention: 0.5, SLO: 50},
	}
	for _, sc := range cells {
		full := table2Row(t, "LiteReconfig", sc)
		resnet := table2Row(t, "LiteReconfig-MaxContent-ResNet", sc)
		// Shape assertion: within the noise floor, full must not lose to
		// the greedy variant while also honoring the SLO.
		if full.MAP < resnet.MAP-0.03 {
			t.Errorf("C4 %v: full (%.3f) clearly below MaxContent-ResNet (%.3f)",
				sc, full.MAP, resnet.MAP)
		}
		if !full.Meets {
			t.Errorf("C4 %v: full violates the SLO (p95=%.1f)", sc, full.P95)
		}
	}
}
