// Package report regenerates every table and figure of the paper's
// evaluation (Sec. 5) from the simulation: Table 1 (feature costs),
// Table 2 (main comparison), Table 3 (accuracy-optimized baselines),
// Table 4 (per-feature effectiveness), Figure 2 (cost-benefit motivation
// curve), Figure 3 (latency breakdown), Figure 4 (branch coverage),
// Figure 5 (switching-cost heatmaps) and the design ablations of
// DESIGN.md §5.
//
// Run executes the named experiments and returns their typed rows;
// Results.Write renders them as paper-style text tables. lr paper
// prints that rendering, and testdata/paper_small.golden pins it for
// the small fixture.
package report

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"litereconfig/internal/baseline"
	"litereconfig/internal/contend"
	"litereconfig/internal/core"
	"litereconfig/internal/detect"
	"litereconfig/internal/feat"
	"litereconfig/internal/fixture"
	"litereconfig/internal/harness"
	"litereconfig/internal/simlat"
)

// Scenario is one evaluation cell: device, contention level, SLO.
type Scenario struct {
	Device     simlat.Device
	Contention float64
	SLO        float64
}

// String implements fmt.Stringer.
func (s Scenario) String() string {
	return fmt.Sprintf("%s/%.0f%%/%.1fms", s.Device.Name, s.Contention*100, s.SLO)
}

// Table2Scenarios returns the paper's evaluation grid: TX2 at 33.3/50/100
// ms and Xavier at 20/33.3/50 ms, each at 0% and 50% GPU contention.
func Table2Scenarios() []Scenario {
	var out []Scenario
	for _, g := range []float64{0, 0.5} {
		for _, slo := range []float64{33.3, 50, 100} {
			out = append(out, Scenario{Device: simlat.TX2, Contention: g, SLO: slo})
		}
		for _, slo := range []float64{20, 33.3, 50} {
			out = append(out, Scenario{Device: simlat.Xavier, Contention: g, SLO: slo})
		}
	}
	return out
}

// Table2Protocols is the protocol lineup of Table 2, in row order.
var Table2Protocols = []string{
	"SSD+", "YOLO+", "ApproxDet",
	"LiteReconfig-MinCost",
	"LiteReconfig-MaxContent-ResNet",
	"LiteReconfig-MaxContent-MobileNet",
	"LiteReconfig",
}

// BuildProtocol constructs a named protocol for a scenario.
func BuildProtocol(set *fixture.Setup, name string, sc Scenario) (harness.Protocol, error) {
	return newRunner(set).protocol(name, sc)
}

// pipelinePolicies maps the LiteReconfig rows of Table 2 to their
// scheduling policies.
var pipelinePolicies = map[string]core.Policy{
	"LiteReconfig-MinCost":              core.PolicyMinCost,
	"LiteReconfig-MaxContent-ResNet":    core.PolicyMaxContentResNet,
	"LiteReconfig-MaxContent-MobileNet": core.PolicyMaxContentMobileNet,
	"LiteReconfig":                      core.PolicyFull,
}

// protocol builds a named protocol for a scenario.
func (r *runner) protocol(name string, sc Scenario) (harness.Protocol, error) {
	switch name {
	case "SSD+":
		return r.enhanced(name, detect.SSDMnasFPN, sc.Device).ForSLO(sc.SLO), nil
	case "YOLO+":
		return r.enhanced(name, detect.YOLOv3, sc.Device).ForSLO(sc.SLO), nil
	case "ApproxDet":
		return baseline.NewApproxDet(r.set.Models, sc.SLO, sc.Device)
	}
	if pol, ok := pipelinePolicies[name]; ok {
		return core.NewPipeline(core.Options{Models: r.set.Models, SLO: sc.SLO, Policy: pol})
	}
	return nil, fmt.Errorf("report: unknown protocol %q", name)
}

// enhanced returns the offline profile of SSD+ or YOLO+ on a device,
// profiling each (model, device) once per runner.
func (r *runner) enhanced(label string, model detect.Model, dev simlat.Device) *baseline.EnhancedProfile {
	k := profileKey{label, dev}
	p, ok := r.profiles[k]
	if !ok {
		p = baseline.ProfileEnhanced(label, model, dev, r.set.Corpus.DetTrain)
		r.profiles[k] = p
	}
	return p
}

// experiments lists every experiment, in the order Run executes and
// Results.Write renders them: its name, the runner method that fills
// its rows and the function that renders them.
var experiments = []struct {
	name   string
	run    func(*runner, *Results) error
	format func(*Results) string
}{
	{"table1", (*runner).table1, formatTable1},
	{"table2", (*runner).table2, formatTable2},
	{"table3", (*runner).table3, formatTable3},
	{"table4", (*runner).table4, formatTable4},
	{"fig2", (*runner).fig2, formatFig2},
	{"fig3", (*runner).fig3, formatFig3},
	{"fig4", (*runner).fig4, formatFig4},
	{"fig5", (*runner).fig5, formatFig5},
	{"ablations", (*runner).ablations, formatAblations},
}

// Results holds the typed rows of the experiments one Run executed;
// the fields of experiments it did not run stay nil.
type Results struct {
	// Names lists the experiments run, in Run's order; Elapsed[i]
	// is the wall time Names[i] took.
	Names   []string
	Elapsed []time.Duration

	Table1    []Table1Row
	Table2    []Table2Row
	Table3    []Table3Row
	Table4    []Table4Row
	Fig2      []Fig2Point
	Fig3      []Fig3Row
	Fig4      []Fig4Row
	Fig5      *Fig5Data
	Ablations []AblationRow
}

// Run executes the named experiments on set, in a fixed order. The
// name "all" selects every experiment; an unknown name is an error.
// Identical (protocol, scenario) cells shared by several experiments
// are evaluated once per Run.
func Run(set *fixture.Setup, names []string) (*Results, error) {
	known := []string{"all"}
	for _, e := range experiments {
		known = append(known, e.name)
	}
	want := map[string]bool{}
	for _, n := range names {
		if !slices.Contains(known, n) {
			return nil, fmt.Errorf("report: unknown experiment %q (known: %s)",
				n, strings.Join(known, ", "))
		}
		want[n] = true
	}
	r, res := newRunner(set), &Results{}
	for _, e := range experiments {
		if !want["all"] && !want[e.name] {
			continue
		}
		t := time.Now()
		if err := e.run(r, res); err != nil {
			return nil, fmt.Errorf("report: %s: %w", e.name, err)
		}
		res.Names = append(res.Names, e.name)
		res.Elapsed = append(res.Elapsed, time.Since(t))
	}
	return res, nil
}

// Write renders every experiment of the Run, in order, each preceded
// and followed by a blank line.
func (res *Results) Write(w io.Writer) error {
	for _, e := range experiments {
		if !slices.Contains(res.Names, e.name) {
			continue
		}
		if _, err := fmt.Fprintf(w, "\n%s\n", e.format(res)); err != nil {
			return err
		}
	}
	return nil
}

// runner carries one Run's fixture and memoizes its evaluated cells
// and SSD+/YOLO+ profiles.
type runner struct {
	set      *fixture.Setup
	cells    map[cellKey]*harness.Result
	profiles map[profileKey]*baseline.EnhancedProfile
}

type cellKey struct {
	name string
	sc   Scenario
}

type profileKey struct {
	label string
	dev   simlat.Device
}

func newRunner(set *fixture.Setup) *runner {
	return &runner{set: set, cells: map[cellKey]*harness.Result{},
		profiles: map[profileKey]*baseline.EnhancedProfile{}}
}

// cell evaluates one protocol in one scenario over the validation set,
// at most once per Run.
func (r *runner) cell(name string, sc Scenario) (*harness.Result, error) {
	k := cellKey{name, sc}
	if res, ok := r.cells[k]; ok {
		return res, nil
	}
	p, err := r.protocol(name, sc)
	if err != nil {
		return nil, err
	}
	res := harness.Evaluate(p, r.set.Corpus.Val, sc.Device, sc.SLO,
		contend.Fixed{G: sc.Contention}, 1234)
	r.cells[k] = res
	return res, nil
}

// Table1Row is one feature-cost row (Table 1).
type Table1Row struct {
	Name      string
	Dim       int
	ExtractMS float64
	PredictMS float64
	Class     string
}

// table1 reads the feature registry.
func (r *runner) table1(res *Results) error {
	kinds := append([]feat.Kind{feat.Light}, feat.HeavyKinds()...)
	for _, k := range kinds {
		s := feat.SpecOf(k)
		res.Table1 = append(res.Table1, Table1Row{
			Name: k.String(), Dim: s.Dim,
			ExtractMS: s.ExtractMS, PredictMS: s.PredictMS,
			Class: s.ExtractClass.String(),
		})
	}
	return nil
}

// formatTable1 renders Table 1.
func formatTable1(res *Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: scheduler features and costs (TX2 ms)\n")
	fmt.Fprintf(&b, "%-12s %6s %10s %10s %6s\n", "feature", "dim", "extract", "predict", "unit")
	for _, r := range res.Table1 {
		fmt.Fprintf(&b, "%-12s %6d %10.2f %10.2f %6s\n",
			r.Name, r.Dim, r.ExtractMS, r.PredictMS, r.Class)
	}
	return b.String()
}

// Table2Row is one (scenario, protocol) cell of the main comparison.
type Table2Row struct {
	Scenario Scenario
	Protocol string
	MAP      float64
	P95      float64
	Mean     float64
	Meets    bool
	Coverage int
	Switches int
}

// table2 evaluates the full Table 2 grid.
func (r *runner) table2(res *Results) error {
	for _, sc := range Table2Scenarios() {
		for _, name := range Table2Protocols {
			c, err := r.cell(name, sc)
			if err != nil {
				return err
			}
			res.Table2 = append(res.Table2, Table2Row{
				Scenario: sc, Protocol: name,
				MAP: c.MAP(), P95: c.Latency.P95(), Mean: c.Latency.Mean(),
				Meets: c.MeetsSLO(), Coverage: c.BranchCoverage,
				Switches: c.Switches,
			})
		}
	}
	return nil
}

// formatTable2 renders the main comparison in the paper's layout: one
// block per (device, contention), protocols as rows, SLOs as columns,
// with "F" marking SLO violations.
func formatTable2(res *Results) string {
	type blockKey struct {
		dev  string
		cont float64
	}
	type cell struct{ row Table2Row }
	blocks := map[blockKey]map[string]map[float64]cell{}
	slosOf := map[blockKey][]float64{}
	for _, r := range res.Table2 {
		k := blockKey{r.Scenario.Device.Name, r.Scenario.Contention}
		if blocks[k] == nil {
			blocks[k] = map[string]map[float64]cell{}
		}
		if blocks[k][r.Protocol] == nil {
			blocks[k][r.Protocol] = map[float64]cell{}
		}
		blocks[k][r.Protocol][r.Scenario.SLO] = cell{r}
		found := false
		for _, s := range slosOf[k] {
			if s == r.Scenario.SLO {
				found = true
			}
		}
		if !found {
			slosOf[k] = append(slosOf[k], r.Scenario.SLO)
		}
	}
	var keys []blockKey
	for k := range blocks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dev != keys[j].dev {
			return keys[i].dev > keys[j].dev // tx2 before xv
		}
		return keys[i].cont < keys[j].cont
	})

	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: mAP%% / P95 latency (ms) per SLO; F = SLO violated\n")
	for _, k := range keys {
		slos := slosOf[k]
		sort.Float64s(slos)
		fmt.Fprintf(&b, "\n== %s, %.0f%% GPU contention ==\n", k.dev, k.cont*100)
		fmt.Fprintf(&b, "%-36s", "protocol")
		for _, s := range slos {
			fmt.Fprintf(&b, " %16s", fmt.Sprintf("SLO %.1fms", s))
		}
		fmt.Fprintln(&b)
		for _, name := range Table2Protocols {
			cells, ok := blocks[k][name]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%-36s", name)
			for _, s := range slos {
				c := cells[s]
				if !c.row.Meets {
					fmt.Fprintf(&b, " %16s", fmt.Sprintf("F (%.1f)", c.row.P95))
				} else {
					fmt.Fprintf(&b, " %16s", fmt.Sprintf("%.1f / %.1f", c.row.MAP*100, c.row.P95))
				}
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}
