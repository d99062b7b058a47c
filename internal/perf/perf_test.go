package perf

import (
	"bytes"
	"testing"

	"litereconfig/internal/fixture"
)

func TestMatrixScales(t *testing.T) {
	for _, scale := range []string{"small", "medium"} {
		cells, err := Matrix(scale)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 6 {
			t.Fatalf("%s: got %d cells, want 6", scale, len(cells))
		}
		seen := map[string]bool{}
		for _, c := range cells {
			if seen[c.Name] {
				t.Fatalf("duplicate cell name %q", c.Name)
			}
			seen[c.Name] = true
			if c.Scale != scale {
				t.Fatalf("cell %s has scale %q, want %q", c.Name, c.Scale, scale)
			}
			if c.Streams <= 0 || c.Frames <= 0 || c.Boards <= 0 {
				t.Fatalf("cell %s has empty shape: %+v", c.Name, c)
			}
		}
	}
	all, err := Matrix("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 12 {
		t.Fatalf("all: got %d cells, want 12", len(all))
	}
	if _, err := Matrix("huge"); err == nil {
		t.Fatal("unknown scale accepted")
	}
	// Coverage: every matrix dimension must be exercised somewhere.
	var faults, adapt, wfq, fleet, risk bool
	for _, c := range all {
		faults = faults || c.Faults
		adapt = adapt || c.Adapt
		wfq = wfq || c.Admission == "wfq"
		fleet = fleet || c.Boards > 1
		risk = risk || c.RiskQ > 0
	}
	if !faults || !adapt || !wfq || !fleet || !risk {
		t.Fatalf("matrix misses a dimension: faults=%v adapt=%v wfq=%v fleet=%v risk=%v",
			faults, adapt, wfq, fleet, risk)
	}
}

func TestFilterCells(t *testing.T) {
	all, _ := Matrix("all")
	got := FilterCells(all, "fleet")
	if len(got) != 2 {
		t.Fatalf("fleet filter: got %d, want 2", len(got))
	}
	if len(FilterCells(all, "")) != len(all) {
		t.Fatal("empty filter must keep all cells")
	}
	if len(FilterCells(all, "nosuchcell")) != 0 {
		t.Fatal("non-matching filter must drop all cells")
	}
}

// TestFixedSeedDeterminism is the satellite contract: two sweeps at the
// same seed must report byte-identical JSON once timing fields are
// stripped — simulated metrics AND allocation counts included (the
// alloc numbers are measured on one quiesced goroutine, so they are
// exact, which is what lets CI hard-fail on any growth).
func TestFixedSeedDeterminism(t *testing.T) {
	set, err := fixture.Small()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := Matrix("small")
	if err != nil {
		t.Fatal(err)
	}
	// Two cells keep the test fast while covering both the faulted and
	// the clean decision paths.
	cells = append(FilterCells(cells, "serve_fifo"), FilterCells(cells, "serve_faults")...)
	if len(cells) != 2 {
		t.Fatalf("expected 2 cells, got %d", len(cells))
	}
	opts := RunOptions{Seed: 7, DecisionOps: 120, SkipWall: true}
	run := func() []byte {
		rep, err := Run(set.Models, cells, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep.StripTiming()
		b, err := rep.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed reports differ after StripTiming:\n--- run1\n%s\n--- run2\n%s", a, b)
	}
}

func TestStripTiming(t *testing.T) {
	r := &Report{
		Schema:  Schema,
		CalibMS: 12.5,
		Env:     Env{GoVersion: "go1.x", GOMAXPROCS: 8, NumCPU: 8},
		Cells: []CellResult{{
			Cell: Cell{Name: "x"},
			Sim:  SimStats{GoFs: 10},
			Mem:  MemStats{DecisionAllocs: 3},
			Wall: WallStats{GoFMeanMS: 1.5, EngineMS: 100},
		}},
	}
	r.StripTiming()
	if r.CalibMS != 0 || r.Env != (Env{}) || r.Cells[0].Wall != (WallStats{}) {
		t.Fatalf("timing fields survived StripTiming: %+v", r)
	}
	if r.Cells[0].Sim.GoFs != 10 || r.Cells[0].Mem.DecisionAllocs != 3 {
		t.Fatal("StripTiming must not touch simulated fields")
	}
}

func TestRoundTrip(t *testing.T) {
	r := &Report{Schema: Schema, Seed: 3,
		Cells: []CellResult{{Cell: Cell{Name: "a"}, Mem: MemStats{DecisionAllocs: 7}}}}
	b, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 3 || got.Cell("a") == nil || got.Cell("a").Mem.DecisionAllocs != 7 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := Unmarshal([]byte(`{"schema":"other/v9"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

func mkReport(calib float64, cells ...CellResult) *Report {
	return &Report{Schema: Schema, CalibMS: calib, Cells: cells}
}

func cell(name string, allocs, byts uint64, gofP50 float64) CellResult {
	return CellResult{
		Cell: Cell{Name: name},
		Mem:  MemStats{DecisionAllocs: allocs, DecisionBytes: byts},
		Wall: WallStats{GoFMeanMS: gofP50, GoFP50MS: gofP50},
	}
}

func TestCompareGate(t *testing.T) {
	base := mkReport(10, cell("a", 20, 800, 1.0), cell("b", 5, 100, 2.0))

	t.Run("pass", func(t *testing.T) {
		g := Compare(mkReport(10, cell("a", 20, 800, 1.05), cell("b", 4, 90, 2.0)), base, 0.15)
		if !g.OK() {
			t.Fatalf("expected pass: %s", g.Summary())
		}
	})
	t.Run("allocs regression is a hard fail", func(t *testing.T) {
		g := Compare(mkReport(10, cell("a", 21, 800, 1.0)), base, 0.15)
		if g.OK() || len(g.Failures) != 1 {
			t.Fatalf("expected 1 failure: %s", g.Summary())
		}
	})
	t.Run("bytes regression is a hard fail", func(t *testing.T) {
		g := Compare(mkReport(10, cell("a", 20, 801, 1.0)), base, 0.15)
		if g.OK() {
			t.Fatalf("expected fail: %s", g.Summary())
		}
	})
	t.Run("wall within tolerance passes", func(t *testing.T) {
		g := Compare(mkReport(10, cell("a", 20, 800, 1.14)), base, 0.15)
		if !g.OK() {
			t.Fatalf("expected pass: %s", g.Summary())
		}
	})
	t.Run("wall beyond tolerance fails", func(t *testing.T) {
		g := Compare(mkReport(10, cell("a", 20, 800, 1.2)), base, 0.15)
		if g.OK() {
			t.Fatalf("expected fail: %s", g.Summary())
		}
	})
	t.Run("wall gate normalizes by calibration", func(t *testing.T) {
		// 2x slower machine (calib 20 vs 10): raw wall doubled is fine.
		g := Compare(mkReport(20, cell("a", 20, 800, 2.0)), base, 0.15)
		if !g.OK() {
			t.Fatalf("expected pass on slower machine: %s", g.Summary())
		}
		// Same machine speed but wall doubled: fail.
		g = Compare(mkReport(10, cell("a", 20, 800, 2.0)), base, 0.15)
		if g.OK() {
			t.Fatal("expected fail for real wall regression")
		}
	})
	t.Run("negative tolerance disables wall gate", func(t *testing.T) {
		g := Compare(mkReport(10, cell("a", 20, 800, 99)), base, -1)
		if !g.OK() {
			t.Fatalf("expected pass with wall gate off: %s", g.Summary())
		}
	})
	t.Run("new cell warns, does not fail", func(t *testing.T) {
		g := Compare(mkReport(10, cell("new", 99, 9999, 9)), base, 0.15)
		if !g.OK() || len(g.Warnings) != 1 {
			t.Fatalf("expected warn-only: %s", g.Summary())
		}
	})
	t.Run("missing calibration warns instead of gating wall", func(t *testing.T) {
		g := Compare(mkReport(0, cell("a", 20, 800, 99)), base, 0.15)
		if !g.OK() || len(g.Warnings) == 0 {
			t.Fatalf("expected warn-only: %s", g.Summary())
		}
	})
}

func TestBuildCampaign(t *testing.T) {
	before := mkReport(10, cell("a", 20, 800, 1), cell("gone", 9, 9, 1))
	after := mkReport(10, cell("a", 10, 400, 1), cell("new", 1, 1, 1))
	camp := BuildCampaign(before, after, "halved")
	if camp.Note != "halved" || len(camp.Cells) != 1 {
		t.Fatalf("unexpected campaign: %+v", camp)
	}
	c := camp.Cells[0]
	if c.Name != "a" || c.AllocsBefore != 20 || c.AllocsAfter != 10 || c.Reduction != 0.5 {
		t.Fatalf("unexpected campaign cell: %+v", c)
	}
}

func TestQuantile(t *testing.T) {
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	s := []float64{1, 2, 3, 4}
	if q := quantile(s, 0.5); q != 2 {
		t.Fatalf("p50 of 1..4 = %v, want 2", q)
	}
	if q := quantile(s, 0.99); q != 4 {
		t.Fatalf("p99 of 1..4 = %v, want 4", q)
	}
	if q := quantile(s, 0); q != 1 {
		t.Fatalf("p0 of 1..4 = %v, want 1", q)
	}
}

func TestLowestMedianRepPicksByMedian(t *testing.T) {
	// The second rep has the lowest median but the highest maximum; the
	// third has the lowest maximum. Selection must go by the median.
	reps := [][]float64{
		{3, 3, 3, 3, 3},
		{1, 1, 1, 2, 9},
		{2, 2, 2, 2, 2},
	}
	if got := lowestMedianRep(reps); &got[0] != &reps[1][0] {
		t.Fatalf("picked %v, want the lowest-median rep %v", got, reps[1])
	}
	if got := lowestMedianRep(nil); got != nil {
		t.Fatalf("no reps picked %v, want nil", got)
	}
}

var allocSink []byte

// TestMeasureAllocsRoundsUp checks that a single allocation in a long
// run is reported, and that between's allocations are not counted.
func TestMeasureAllocsRoundsUp(t *testing.T) {
	i := 0
	allocs, bytes := measureAllocs(nil,
		func() bool {
			i++
			if i == 150 {
				allocSink = make([]byte, 64)
			}
			return i <= 300
		},
		func() { allocSink = make([]byte, 4096) })
	if allocs != 1 || bytes != 1 {
		t.Fatalf("one 64-byte allocation in 300 ops = %d allocs, %d B per op; want 1, 1", allocs, bytes)
	}
}
