package report

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"

	"litereconfig/internal/fixture"
	"litereconfig/internal/simlat"
)

func setup(t *testing.T) *fixture.Setup {
	t.Helper()
	s, err := fixture.Small()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	smallOnce sync.Once
	smallRes  *Results
	smallErr  error
)

// results runs every experiment on the small fixture once per test
// binary; the golden and every shape test read that one run.
func results(t *testing.T) *Results {
	t.Helper()
	s := setup(t)
	smallOnce.Do(func() { smallRes, smallErr = Run(s, []string{"all"}) })
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallRes
}

// TestPaperSmallGolden pins every reported cell: the rendering must match
// `go run ./cmd/lr paper -exp all -scale small` as committed. After an
// intended change, regenerate with
//
//	go run ./cmd/lr paper -exp all -scale small > internal/report/testdata/paper_small.golden
func TestPaperSmallGolden(t *testing.T) {
	var got bytes.Buffer
	if err := results(t).Write(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/paper_small.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("output differs from testdata/paper_small.golden at line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
}

func TestRunSelectsNamedExperiments(t *testing.T) {
	s := setup(t)
	res, err := Run(s, []string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 1 || res.Names[0] != "table1" || len(res.Table1) == 0 || res.Table2 != nil {
		t.Fatalf("Run(table1) ran %v", res.Names)
	}
	if _, err := Run(s, []string{"table1", "nope"}); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown experiment not rejected: %v", err)
	}
}

func TestTable1(t *testing.T) {
	res := results(t)
	if len(res.Table1) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Table1))
	}
	out := formatTable1(res)
	for _, want := range []string{"light", "hoc", "hog", "resnet50", "cpop", "mobilenetv2", "153.96"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Scenarios(t *testing.T) {
	scs := Table2Scenarios()
	if len(scs) != 12 {
		t.Fatalf("scenarios = %d, want 12", len(scs))
	}
	tx2, xv := 0, 0
	for _, sc := range scs {
		switch sc.Device.Name {
		case "tx2":
			tx2++
		case "xv":
			xv++
		}
		if sc.String() == "" {
			t.Fatal("empty scenario string")
		}
	}
	if tx2 != 6 || xv != 6 {
		t.Fatalf("device split = %d/%d", tx2, xv)
	}
}

// table2Row returns the Table 2 row of one protocol in one scenario.
func table2Row(t *testing.T, name string, sc Scenario) Table2Row {
	t.Helper()
	for _, r := range results(t).Table2 {
		if r.Protocol == name && r.Scenario == sc {
			return r
		}
	}
	t.Fatalf("Table 2 has no %s row for %v", name, sc)
	return Table2Row{}
}

func TestRunTable2Subset(t *testing.T) {
	res := results(t)
	if len(res.Table2) != len(Table2Scenarios())*len(Table2Protocols) {
		t.Fatalf("rows = %d", len(res.Table2))
	}
	out := formatTable2(res)
	if !strings.Contains(out, "LiteReconfig") || !strings.Contains(out, "tx2") {
		t.Fatalf("table 2 malformed:\n%s", out)
	}
	// LiteReconfig meets the SLO on the TX2 at 50 ms, with and without
	// contention.
	for _, g := range []float64{0, 0.5} {
		sc := Scenario{Device: simlat.TX2, Contention: g, SLO: 50}
		if r := table2Row(t, "LiteReconfig", sc); !r.Meets {
			t.Errorf("LiteReconfig violates SLO in %v (p95=%.1f)", sc, r.P95)
		}
	}
}

func TestRunTable3(t *testing.T) {
	rows := results(t).Table3
	// 8 references + 2 EfficientDet + 5 AdaScale + 3 LiteReconfig = 18.
	if len(rows) != 18 {
		t.Fatalf("rows = %d, want 18", len(rows))
	}
	byLabel := map[string]Table3Row{}
	oom := 0
	for _, r := range rows {
		byLabel[r.Label] = r
		if r.OOM {
			oom++
		}
	}
	if oom != 5 {
		t.Fatalf("OOM rows = %d, want 5", oom)
	}
	// Shape checks (Table 3's story): SELSA most accurate and slowest of
	// the runnable references; LiteReconfig far faster than every
	// reference.
	selsa := byLabel["SELSA-ResNet-50"]
	lr33 := byLabel["LiteReconfig, 33.3 ms"]
	if selsa.MAP <= lr33.MAP {
		t.Errorf("SELSA (%.3f) should be far more accurate than LiteReconfig (%.3f)",
			selsa.MAP, lr33.MAP)
	}
	speedup := selsa.MeanMS / lr33.MeanMS
	if speedup < 20 {
		t.Errorf("LiteReconfig speedup over SELSA = %.1fx, want >= 20x", speedup)
	}
	t.Logf("speedup over SELSA: %.1fx", speedup)
}

func TestRunTable4(t *testing.T) {
	res := results(t)
	rows := res.Table4
	if len(rows) != 3*6 { // 3 SLOs x (none + 5 features)
		t.Fatalf("rows = %d, want 18", len(rows))
	}
	out := formatTable4(res)
	if !strings.Contains(out, "none") || !strings.Contains(out, "mobilenetv2") {
		t.Fatalf("table 4 malformed:\n%s", out)
	}
	// At the loosest SLO, the best single content feature should not be
	// worse than content-agnostic (Sec. 5.4: all features beat "None").
	best := map[float64]float64{}
	none := map[float64]float64{}
	for _, r := range rows {
		if r.Feature == "none" {
			none[r.SLO] = r.MAP
		} else if r.MAP > best[r.SLO] {
			best[r.SLO] = r.MAP
		}
	}
	if best[100] < none[100]-0.005 {
		t.Errorf("best feature (%.3f) clearly below none (%.3f) at 100 ms", best[100], none[100])
	}
}

func TestRunFig2(t *testing.T) {
	res := results(t)
	pts := res.Fig2
	if len(pts) != len(Fig2Strategies)*len(Fig2SLOs) {
		t.Fatalf("points = %d", len(pts))
	}
	out := formatFig2(res)
	if !strings.Contains(out, "MaxContent-ResNet") {
		t.Fatalf("fig2 malformed:\n%s", out)
	}
	// Within each strategy, accuracy is non-decreasing in SLO on average
	// (compare the tightest and loosest points).
	byStrat := map[string][]Fig2Point{}
	for _, p := range pts {
		byStrat[p.Strategy] = append(byStrat[p.Strategy], p)
	}
	for strat, ps := range byStrat {
		if ps[len(ps)-1].MAP < ps[0].MAP-0.01 {
			t.Errorf("%s: accuracy at loose SLO (%.3f) below tight (%.3f)",
				strat, ps[len(ps)-1].MAP, ps[0].MAP)
		}
	}
}

func TestRunFig3(t *testing.T) {
	rows := results(t).Fig3
	if len(rows) != 3*len(Fig3Protocols) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DetectorPct < 0 || r.TrackerPct < 0 || r.SchedulerPct < 0 || r.SwitchPct < 0 {
			t.Fatalf("negative breakdown: %+v", r)
		}
		// LiteReconfig's scheduling overhead stays below 10% of the SLO
		// (Sec. 5.5: "the overhead of LiteReconfig is always below 10%").
		if r.Protocol == "LiteReconfig" && r.SchedulerPct+r.SwitchPct > 10 {
			t.Errorf("LiteReconfig overhead %.1f%%+%.2f%% exceeds 10%% at %.1f ms",
				r.SchedulerPct, r.SwitchPct, r.SLO)
		}
	}
}

func TestRunFig4(t *testing.T) {
	cov := map[string]int{}
	for _, r := range results(t).Fig4 {
		cov[r.Protocol] += r.Coverage
	}
	// Fixed-branch baselines cover exactly 1 branch per SLO.
	if cov["SSD+"] != 3 || cov["YOLO+"] != 3 {
		t.Errorf("enhanced baselines should cover 1 branch per SLO: %v", cov)
	}
	// Adaptive protocols explore more branches than the fixed baselines.
	if cov["LiteReconfig"] <= cov["SSD+"] {
		t.Errorf("LiteReconfig coverage (%d) should exceed SSD+ (%d)",
			cov["LiteReconfig"], cov["SSD+"])
	}
}

func TestRunFig5(t *testing.T) {
	res := results(t)
	d := res.Fig5
	// Small fixture has 2 shapes x 2 nprops = 4 buckets.
	if len(d.Labels) != 4 {
		t.Fatalf("labels = %d", len(d.Labels))
	}
	if len(d.Online) != 2 {
		t.Fatalf("online SLOs = %d", len(d.Online))
	}
	for i := range d.Offline {
		if d.Offline[i][i] != 0 {
			t.Fatal("offline diagonal should be zero")
		}
	}
	out := formatFig5(res)
	if !strings.Contains(out, "Figure 5(a)") || !strings.Contains(out, "Figure 5(b)") {
		t.Fatalf("fig5 malformed:\n%s", out)
	}
}

func TestBuildProtocolUnknown(t *testing.T) {
	s := setup(t)
	if _, err := BuildProtocol(s, "nope", Scenario{Device: simlat.TX2, SLO: 50}); err == nil {
		t.Fatal("unknown protocol should error")
	}
}

func TestAblations(t *testing.T) {
	rows := map[string]AblationRow{}
	for _, r := range results(t).Ablations {
		rows[r.Variant+" "+r.Scenario.String()] = r
	}
	if len(rows) != len(ablationVariants) {
		t.Fatalf("%d distinct ablation rows, want %d", len(rows), len(ablationVariants))
	}
	get := func(variant string, sc Scenario) AblationRow {
		t.Helper()
		r, ok := rows[variant+" "+sc.String()]
		if !ok {
			t.Fatalf("no %q row in %v", variant, sc)
		}
		return r
	}
	deployed := get("deployed", ablationScenario)
	// The safety column reports the factor the pipeline resolved, not a
	// hard-coded label.
	if deployed.SafetyFactor != 0.88 || get("no planning headroom", ablationScenario).SafetyFactor != 1 {
		t.Errorf("resolved safety factors: deployed %.2f, no headroom %.2f",
			deployed.SafetyFactor, get("no planning headroom", ablationScenario).SafetyFactor)
	}
	if r := get("no switch hysteresis", ablationScenario); r.Switches < deployed.Switches {
		t.Errorf("hysteresis removal cut switches: %d < %d", r.Switches, deployed.Switches)
	}
	if r := get("no feature-cost pricing", ablationScenario); r.SchedulerPct < deployed.SchedulerPct {
		t.Errorf("unpriced features cut scheduler time: %.1f%% < %.1f%%", r.SchedulerPct, deployed.SchedulerPct)
	}
	hot, cold := get("deployed", driftScenario), get("no CPU-drift estimator", driftScenario)
	if cold.ViolationPct <= hot.ViolationPct {
		t.Errorf("drift estimator does not cut violations on the throttled board: %.2f%% vs %.2f%% without",
			hot.ViolationPct, cold.ViolationPct)
	}
}
