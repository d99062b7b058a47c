package report

import (
	"fmt"
	"sort"
	"strings"

	"litereconfig/internal/mbek"
	"litereconfig/internal/sched"
	"litereconfig/internal/simlat"
)

// Fig2Point is one point of the accuracy-vs-latency motivation curve
// (Figure 2): a strategy evaluated at one SLO.
type Fig2Point struct {
	Strategy string
	SLO      float64
	MeanMS   float64
	MAP      float64
}

// Fig2Strategies are the three strategies Figure 2 contrasts.
var Fig2Strategies = []string{
	"LiteReconfig-MinCost",              // content-agnostic
	"LiteReconfig-MaxContent-ResNet",    // content-aware, detector-shared feature
	"LiteReconfig-MaxContent-MobileNet", // content-aware, external feature
}

// Fig2SLOs is the SLO sweep of the curve.
var Fig2SLOs = []float64{33.3, 40, 50, 66.7, 80, 100}

// fig2 sweeps the three strategies over the SLO range on the TX2.
func (r *runner) fig2(res *Results) error {
	for _, name := range Fig2Strategies {
		for _, slo := range Fig2SLOs {
			c, err := r.cell(name, Scenario{Device: simlat.TX2, SLO: slo})
			if err != nil {
				return err
			}
			res.Fig2 = append(res.Fig2, Fig2Point{Strategy: name, SLO: slo,
				MeanMS: c.Latency.Mean(), MAP: c.MAP()})
		}
	}
	return nil
}

// formatFig2 renders the curve data.
func formatFig2(res *Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: accuracy vs latency per strategy (TX2, no contention)\n")
	fmt.Fprintf(&b, "%-36s %8s %12s %8s\n", "strategy", "SLO(ms)", "mean lat(ms)", "mAP(%)")
	for _, p := range res.Fig2 {
		fmt.Fprintf(&b, "%-36s %8.1f %12.1f %8.1f\n", p.Strategy, p.SLO, p.MeanMS, p.MAP*100)
	}
	return b.String()
}

// Fig3Row is one latency-breakdown bar (Figure 3): the share of the SLO
// spent per component, per protocol, per SLO.
type Fig3Row struct {
	Protocol string
	SLO      float64
	// Percent of the SLO per component (mean per-frame / SLO).
	DetectorPct  float64
	TrackerPct   float64
	SchedulerPct float64 // modeling cost: features, predictors, solver
	SwitchPct    float64
	Meets        bool
}

// Fig3Protocols are the bars of Figure 3.
var Fig3Protocols = []string{
	"SSD+", "YOLO+", "ApproxDet",
	"LiteReconfig-MinCost",
	"LiteReconfig-MaxContent-ResNet",
	"LiteReconfig-MaxContent-MobileNet",
	"LiteReconfig",
}

// fig3 profiles the component breakdown on the TX2 at the three SLOs.
func (r *runner) fig3(res *Results) error {
	for _, slo := range []float64{33.3, 50, 100} {
		for _, name := range Fig3Protocols {
			c, err := r.cell(name, Scenario{Device: simlat.TX2, SLO: slo})
			if err != nil {
				return err
			}
			bd := c.Breakdown
			res.Fig3 = append(res.Fig3, Fig3Row{
				Protocol: name, SLO: slo,
				DetectorPct:  bd.PerFrame(mbek.CompDetector) / slo * 100,
				TrackerPct:   bd.PerFrame(mbek.CompTracker) / slo * 100,
				SchedulerPct: (bd.PerFrame("scheduler") + bd.PerFrame("pipeline")) / slo * 100,
				SwitchPct:    bd.PerFrame(mbek.CompSwitch) / slo * 100,
				Meets:        c.MeetsSLO(),
			})
		}
	}
	return nil
}

// formatFig3 renders the breakdown table.
func formatFig3(res *Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: %% of SLO per component (TX2; protocols violating the SLO marked F)\n")
	fmt.Fprintf(&b, "%-36s %8s %9s %9s %9s %9s %6s\n",
		"protocol", "SLO(ms)", "detector", "tracker", "sched", "switch", "fits")
	for _, r := range res.Fig3 {
		fits := "yes"
		if !r.Meets {
			fits = "F"
		}
		fmt.Fprintf(&b, "%-36s %8.1f %8.1f%% %8.1f%% %8.1f%% %8.2f%% %6s\n",
			r.Protocol, r.SLO, r.DetectorPct, r.TrackerPct, r.SchedulerPct,
			r.SwitchPct, fits)
	}
	return b.String()
}

// Fig4Row is one branch-coverage bar (Figure 4).
type Fig4Row struct {
	Protocol string
	SLO      float64
	Coverage int
	Switches int
}

// fig4 measures branch coverage per protocol per SLO on the TX2.
func (r *runner) fig4(res *Results) error {
	for _, slo := range []float64{33.3, 50, 100} {
		for _, name := range Table2Protocols {
			c, err := r.cell(name, Scenario{Device: simlat.TX2, SLO: slo})
			if err != nil {
				return err
			}
			res.Fig4 = append(res.Fig4, Fig4Row{Protocol: name, SLO: slo,
				Coverage: c.BranchCoverage, Switches: c.Switches})
		}
	}
	return nil
}

// formatFig4 renders the coverage table.
func formatFig4(res *Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: branch coverage (distinct branches executed) and switches\n")
	fmt.Fprintf(&b, "%-36s %8s %9s %9s\n", "protocol", "SLO(ms)", "coverage", "switches")
	for _, r := range res.Fig4 {
		fmt.Fprintf(&b, "%-36s %8.1f %9d %9d\n", r.Protocol, r.SLO, r.Coverage, r.Switches)
	}
	return b.String()
}

// Fig5Data holds the offline switching-cost matrix and the online
// observed switch costs aggregated by (shape, nprop) buckets (Figure 5).
type Fig5Data struct {
	Labels  []string
	Offline [][]float64
	// Online[slo] aggregates observed switch costs per (from, to) label
	// pair; cells with no observed switches are -1.
	Online map[float64][][]float64
	// Outliers counts online switches above 100 ms (cold graph misses).
	Outliers map[float64]int
}

// fig5 computes the offline matrix and replays LiteReconfig at 33.3
// and 50 ms on the TX2 to harvest the online switch log.
func (r *runner) fig5(res *Results) error {
	labels, offline := sched.SwitchMatrix(r.set.Models.Branches)
	idx := map[string]int{}
	for i, l := range labels {
		idx[l] = i
	}
	d := &Fig5Data{Labels: labels, Offline: offline,
		Online: map[float64][][]float64{}, Outliers: map[float64]int{}}
	for _, slo := range []float64{33.3, 50} {
		c, err := r.cell("LiteReconfig", Scenario{Device: simlat.TX2, SLO: slo})
		if err != nil {
			return err
		}
		sums := make([][]float64, len(labels))
		counts := make([][]int, len(labels))
		for i := range sums {
			sums[i] = make([]float64, len(labels))
			counts[i] = make([]int, len(labels))
		}
		for _, ev := range c.SwitchLog {
			from := fmt.Sprintf("(%d,%d)", ev.From.Shape, ev.From.NProp)
			to := fmt.Sprintf("(%d,%d)", ev.To.Shape, ev.To.NProp)
			fi, fok := idx[from]
			ti, tok := idx[to]
			if !fok || !tok {
				continue
			}
			sums[fi][ti] += ev.CostMS
			counts[fi][ti]++
			if ev.CostMS > 100 {
				d.Outliers[slo]++
			}
		}
		grid := make([][]float64, len(labels))
		for i := range grid {
			grid[i] = make([]float64, len(labels))
			for j := range grid[i] {
				if counts[i][j] == 0 {
					grid[i][j] = -1
				} else {
					grid[i][j] = sums[i][j] / float64(counts[i][j])
				}
			}
		}
		d.Online[slo] = grid
	}
	res.Fig5 = d
	return nil
}

// formatFig5 renders both heatmaps as text grids.
func formatFig5(res *Results) string {
	d := res.Fig5
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5(a): offline switching cost matrix (ms), (shape,nprop) buckets\n")
	writeGrid(&b, d.Labels, d.Offline)
	var slos []float64
	for slo := range d.Online {
		slos = append(slos, slo)
	}
	sort.Float64s(slos)
	for _, slo := range slos {
		fmt.Fprintf(&b, "\nFigure 5(b): online observed switch cost (ms) at %.1f ms SLO (- = no switch; %d cold-miss outliers)\n",
			slo, d.Outliers[slo])
		writeGrid(&b, d.Labels, d.Online[slo])
	}
	return b.String()
}

func writeGrid(b *strings.Builder, labels []string, grid [][]float64) {
	fmt.Fprintf(b, "%-11s", "")
	for _, l := range labels {
		fmt.Fprintf(b, " %9s", l)
	}
	fmt.Fprintln(b)
	for i, l := range labels {
		fmt.Fprintf(b, "%-11s", l)
		for j := range labels {
			v := grid[i][j]
			if v < 0 {
				fmt.Fprintf(b, " %9s", "-")
			} else {
				fmt.Fprintf(b, " %9.1f", v)
			}
		}
		fmt.Fprintln(b)
	}
}
