package report

import (
	"fmt"
	"strings"

	"litereconfig/internal/baseline"
	"litereconfig/internal/contend"
	"litereconfig/internal/core"
	"litereconfig/internal/detect"
	"litereconfig/internal/feat"
	"litereconfig/internal/harness"
	"litereconfig/internal/simlat"
)

// Table3Row is one accuracy-optimized baseline row (Table 3): mAP, mean
// latency and memory on the TX2, no SLO.
type Table3Row struct {
	Label    string
	MAP      float64
	MeanMS   float64
	MemoryGB float64
	OOM      bool
}

// table3 evaluates the accuracy-optimized baselines and LiteReconfig
// at its three TX2 SLOs on the validation set.
func (r *runner) table3(res *Results) error {
	set, dev := r.set, simlat.TX2
	add := func(label string, c *harness.Result) {
		res.Table3 = append(res.Table3, Table3Row{
			Label: label, MAP: c.MAP(), MeanMS: c.Latency.Mean(),
			MemoryGB: c.MemoryGB, OOM: c.OOM,
		})
	}

	// References, including the configurations that OOM on the TX2.
	for _, spec := range baseline.ReferenceSpecs() {
		if spec.Runnable == nil || !dev.FitsMemory(spec.MemoryGB) {
			add(spec.Label, baseline.OOMResult(spec, dev))
			continue
		}
		p := &baseline.Static{Label: spec.Label, Model: *spec.Runnable, Shape: spec.Shape}
		add(spec.Label, harness.Evaluate(p, set.Corpus.Val, dev, 0, contend.Fixed{}, 77))
	}

	// EfficientDet D0 and D3.
	for _, s := range []baseline.Static{
		{Label: "EfficientDet-D3", Model: detect.EfficientDetD3, Shape: 576},
		{Label: "EfficientDet-D0", Model: detect.EfficientDetD0, Shape: 512},
	} {
		p := s
		add(p.Label, harness.Evaluate(&p, set.Corpus.Val, dev, 0, contend.Fixed{}, 77))
	}

	// AdaScale: multi-scale plus the four single-scale variants.
	add("AdaScale-MS", harness.Evaluate(&baseline.AdaScaleMS{}, set.Corpus.Val, dev, 0, contend.Fixed{}, 77))
	for _, scale := range []int{600, 480, 360, 240} {
		p := &baseline.Static{Label: fmt.Sprintf("AdaScale-SS-%d", scale),
			Model: detect.AdaScaleRCNN, Shape: scale}
		add(p.Label, harness.Evaluate(p, set.Corpus.Val, dev, 0, contend.Fixed{}, 77))
	}

	// LiteReconfig at its three TX2 SLOs.
	for _, slo := range []float64{100, 50, 33.3} {
		p, err := core.NewPipeline(core.Options{Models: set.Models, SLO: slo,
			Policy: core.PolicyFull})
		if err != nil {
			return err
		}
		add(fmt.Sprintf("LiteReconfig, %.1f ms", slo),
			harness.Evaluate(p, set.Corpus.Val, dev, slo, contend.Fixed{}, 77))
	}
	return nil
}

// formatTable3 renders Table 3.
func formatTable3(res *Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: accuracy-optimized models vs LiteReconfig (TX2, no contention)\n")
	fmt.Fprintf(&b, "%-26s %8s %14s %10s\n", "model", "mAP(%)", "mean lat(ms)", "mem(GB)")
	for _, r := range res.Table3 {
		if r.OOM {
			fmt.Fprintf(&b, "%-26s %8s %14s %10.2f\n", r.Label, "OOM", "OOM", r.MemoryGB)
			continue
		}
		fmt.Fprintf(&b, "%-26s %8.1f %14.1f %10.2f\n",
			r.Label, r.MAP*100, r.MeanMS, r.MemoryGB)
	}
	return b.String()
}

// Table4Row is one (feature, SLO) cell of the per-feature effectiveness
// study: accuracy when always using one content feature, with the SLO
// applied to the MBEK only (feature overhead ignored).
type Table4Row struct {
	Feature string
	SLO     float64
	MAP     float64
}

// Table4SLOs are the latency objectives of Table 4.
var Table4SLOs = []float64{33.3, 50, 100}

// table4 evaluates the content features individually.
func (r *runner) table4(res *Results) error {
	set := r.set
	for _, slo := range Table4SLOs {
		// "None": the content-agnostic scheduler.
		none, err := core.NewPipeline(core.Options{Models: set.Models, SLO: slo,
			Policy: core.PolicyMinCost})
		if err != nil {
			return err
		}
		c := harness.Evaluate(none, set.Corpus.Val, simlat.TX2, slo, contend.Fixed{}, 55)
		res.Table4 = append(res.Table4, Table4Row{Feature: "none", SLO: slo, MAP: c.MAP()})

		for _, k := range feat.HeavyKinds() {
			p, err := core.NewPipeline(core.Options{Models: set.Models, SLO: slo,
				Policy: core.PolicyForceFeature, ForcedFeature: k,
				IgnoreFeatureOverhead: true})
			if err != nil {
				return err
			}
			c := harness.Evaluate(p, set.Corpus.Val, simlat.TX2, slo, contend.Fixed{}, 55)
			res.Table4 = append(res.Table4, Table4Row{Feature: k.String(), SLO: slo, MAP: c.MAP()})
		}
	}
	return nil
}

// formatTable4 renders Table 4.
func formatTable4(res *Results) string {
	byFeat := map[string]map[float64]float64{}
	var order []string
	for _, r := range res.Table4 {
		if byFeat[r.Feature] == nil {
			byFeat[r.Feature] = map[float64]float64{}
			order = append(order, r.Feature)
		}
		byFeat[r.Feature][r.SLO] = r.MAP
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: accuracy (mAP%%) of individual content features, overhead ignored\n")
	fmt.Fprintf(&b, "%-14s", "feature")
	for _, slo := range Table4SLOs {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("%.1f ms", slo))
	}
	fmt.Fprintln(&b)
	for _, f := range order {
		fmt.Fprintf(&b, "%-14s", f)
		for _, slo := range Table4SLOs {
			fmt.Fprintf(&b, " %10.1f", byFeat[f][slo]*100)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
