// Package sched implements the offline training pipeline of the
// scheduler (Sec. 4 and 5.2): it executes every execution branch over the
// scheduler-training snippets to collect (features, per-branch accuracy,
// per-branch latency) labels, trains the content-aware accuracy
// prediction networks and the per-branch latency regressions, and builds
// the benefit table Ben(f_H) used by the online cost-benefit analyzer.
package sched

import (
	"fmt"
	"math"

	"litereconfig/internal/detect"
	"litereconfig/internal/feat"
	"litereconfig/internal/mbek"
	"litereconfig/internal/par"
	"litereconfig/internal/simlat"
	"litereconfig/internal/vid"
)

// Config controls label collection and training.
type Config struct {
	// Branches is the branch space the predictors cover. Defaults to
	// mbek.DefaultBranches().
	Branches []mbek.Branch
	// Det is the MBEK's detector model. Defaults to detect.FasterRCNN.
	Det detect.Model
	// SnippetLen is the look-ahead window N (Sec. 3.3). Defaults to 100.
	SnippetLen int
	// SnippetStride is the offset between training snippet starts;
	// overlapping snippets multiply the training set. Defaults to
	// SnippetLen/2.
	SnippetStride int
	// Device is the measurement board for latency labels. Defaults to TX2.
	Device simlat.Device
	// Seed drives every stochastic component. Defaults to 1.
	Seed int64

	// Network shape. The paper uses ProjDim 256 and four 256-wide hidden
	// layers; the defaults here are smaller so offline training finishes
	// in seconds on a laptop while preserving the architecture.
	ProjDim int   // defaults to 32
	Hidden  []int // defaults to [64]
	Epochs  int   // defaults to 120 with early stopping
	// SketchDim is the width of the frozen random projection applied to
	// each heavy feature before its trainable tower (a Johnson-
	// Lindenstrauss sketch). It bounds the trainable parameter count of
	// the high-dimensional features, which is what keeps the content
	// models sample-efficient on small offline datasets. Defaults to 64.
	SketchDim int
	// BenHoldoutFrac is the fraction of offline samples withheld from
	// predictor training and used only to measure the benefit table, so
	// Ben(f_H) reflects generalization gain rather than training-set
	// optimism. Defaults to 0.25.
	BenHoldoutFrac float64

	// BudgetsMS are the kernel-latency buckets of the benefit table.
	BudgetsMS []float64
}

func (c *Config) applyDefaults() {
	if c.Branches == nil {
		c.Branches = mbek.DefaultBranches()
	}
	if c.Det.Name == "" {
		c.Det = detect.FasterRCNN
	}
	if c.SnippetLen == 0 {
		c.SnippetLen = 100
	}
	if c.SnippetStride == 0 {
		c.SnippetStride = c.SnippetLen / 2
	}
	if c.Device.Name == "" {
		c.Device = simlat.TX2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ProjDim == 0 {
		c.ProjDim = 32
	}
	if c.Hidden == nil {
		c.Hidden = []int{64}
	}
	if c.Epochs == 0 {
		c.Epochs = 120
	}
	if c.SketchDim == 0 {
		c.SketchDim = 64
	}
	if c.BenHoldoutFrac == 0 {
		c.BenHoldoutFrac = 0.25
	}
	if c.BudgetsMS == nil {
		c.BudgetsMS = []float64{10, 15, 20, 27, 33.3, 50, 75, 100}
	}
}

// Sample is one labeled training snippet.
type Sample struct {
	Light []float64               // light features of the first frame
	Heavy map[feat.Kind][]float64 // heavy features of the first frame
	MAP   []float64               // per-branch snippet mAP
	DetMS []float64               // per-branch per-frame detector ms (TX2, no contention)
	TrkMS []float64               // per-branch per-frame tracker ms
	// WinMS holds, per branch, the mean per-frame latency of each
	// GoF-length window of the snippet (window = the branch's own GoF
	// size). Snippet aggregates (DetMS+TrkMS) average away exactly the
	// execution noise a serve-time GoF realizes; the window means keep
	// it, and risk training measures its residual variance from them.
	WinMS [][]float64
}

// Dataset is the collected offline label set.
type Dataset struct {
	Cfg     Config
	Samples []Sample
}

// snippetsOf cuts a video into overlapping training snippets.
func snippetsOf(v *vid.Video, length, stride int) []vid.Snippet {
	var out []vid.Snippet
	for start := 0; start+length <= v.Len(); start += stride {
		out = append(out, vid.Snippet{Video: v, Start: start, N: length})
	}
	if len(out) == 0 && v.Len() > 0 {
		out = append(out, vid.Snippet{Video: v, Start: 0, N: v.Len()})
	}
	return out
}

// Collect executes every branch over every training snippet and extracts
// all features of each snippet's first frame. This is the expensive
// offline phase ("10% of the training dataset to train the scheduler",
// Sec. 5.2).
//
// The samples and their features are built serially; the (snippet,
// detector configuration) units then run on GOMAXPROCS workers. A unit
// evaluates every branch of its configuration with one detector pass
// per frame (mbek.EvalBranchGroup). Branch bi of snippet si of video vi
// is seeded Seed + vi·100003 + si·307 + bi and writes only its own
// branch slot of its sample, so the dataset is bit-identical whatever
// the worker count or schedule.
func Collect(cfg Config, videos []*vid.Video) *Dataset {
	cfg.applyDefaults()
	ex := feat.NewExtractor(cfg.Seed)
	ds := &Dataset{Cfg: cfg}
	// snippet i is ds.Samples[i]'s; seed is the seed of its branch 0.
	type snippet struct {
		s    vid.Snippet
		seed int64
	}
	var snips []snippet
	for vi, v := range videos {
		for si, s := range snippetsOf(v, cfg.SnippetLen, cfg.SnippetStride) {
			sample := Sample{
				Light: feat.LightVector(v, s.First()),
				Heavy: map[feat.Kind][]float64{},
				MAP:   make([]float64, len(cfg.Branches)),
				DetMS: make([]float64, len(cfg.Branches)),
				TrkMS: make([]float64, len(cfg.Branches)),
				WinMS: make([][]float64, len(cfg.Branches)),
			}
			for _, k := range feat.HeavyKinds() {
				sample.Heavy[k] = ex.Extract(k, v, s.First())
			}
			snips = append(snips, snippet{s, cfg.Seed + int64(vi)*100003 + int64(si)*307})
			ds.Samples = append(ds.Samples, sample)
		}
	}
	groups := detConfigGroups(cfg.Branches)
	n := len(snips) * len(groups)
	par.For(par.Workers(n), n, func(_, i int) {
		sn, g := snips[i/len(groups)], groups[i%len(groups)]
		seeds := make([]int64, len(g.idx))
		for j, bi := range g.idx {
			seeds[j] = sn.seed + int64(bi)
		}
		evs, series := mbek.EvalBranchGroup(cfg.Det, sn.s, g.branches, cfg.Device, 0, seeds)
		sample := &ds.Samples[i/len(groups)]
		for j, bi := range g.idx {
			sample.MAP[bi] = evs[j].MAP
			sample.DetMS[bi] = evs[j].DetMS
			sample.TrkMS[bi] = evs[j].TrkMS
			sample.WinMS[bi] = windowMeans(series[j], g.branches[j].GoF)
		}
	})
	return ds
}

// branchGroup is the branches of one detector configuration and their
// indices in the branch space.
type branchGroup struct {
	branches []mbek.Branch
	idx      []int
}

// detConfigGroups partitions branches by detector configuration, groups
// in order of first appearance, each in branch order.
func detConfigGroups(branches []mbek.Branch) []branchGroup {
	var groups []branchGroup
	at := map[detect.Config]int{}
	for bi, b := range branches {
		gi, ok := at[b.DetConfig()]
		if !ok {
			gi = len(groups)
			at[b.DetConfig()] = gi
			groups = append(groups, branchGroup{})
		}
		groups[gi].branches = append(groups[gi].branches, b)
		groups[gi].idx = append(groups[gi].idx, bi)
	}
	return groups
}

// windowMeans folds a per-frame latency series into per-window means of
// the given window size (the branch's GoF length; <1 treated as 1). A
// trailing partial window is dropped: serve-time GoFs are full-length,
// and a short tail would overweight single-frame noise.
func windowMeans(series []float64, win int) []float64 {
	if win < 1 {
		win = 1
	}
	var out []float64
	for i := 0; i+win <= len(series); i += win {
		sum := 0.0
		for _, v := range series[i : i+win] {
			sum += v
		}
		out = append(out, sum/float64(win))
	}
	return out
}

// Standardizer stores per-dimension mean and standard deviation for
// feature normalization; networks train on standardized inputs.
type Standardizer struct {
	Mean []float64
	Std  []float64
}

// FitStandardizer computes per-dimension statistics over the rows.
func FitStandardizer(rows [][]float64) *Standardizer {
	if len(rows) == 0 {
		return &Standardizer{}
	}
	d := len(rows[0])
	s := &Standardizer{Mean: make([]float64, d), Std: make([]float64, d)}
	for _, r := range rows {
		for i, x := range r {
			s.Mean[i] += x
		}
	}
	inv := 1.0 / float64(len(rows))
	for i := range s.Mean {
		s.Mean[i] *= inv
	}
	for _, r := range rows {
		for i, x := range r {
			dx := x - s.Mean[i]
			s.Std[i] += dx * dx
		}
	}
	for i := range s.Std {
		s.Std[i] = math.Sqrt(s.Std[i] * inv)
		if s.Std[i] < 1e-8 {
			s.Std[i] = 1
		}
	}
	return s
}

// Apply returns the standardized copy of x.
func (s *Standardizer) Apply(x []float64) []float64 {
	return s.ApplyInto(nil, x)
}

// ApplyInto standardizes x into dst, growing it only when its capacity
// is short; the returned slice is dst's backing store resized to len(x).
// Callers that hold a reusable buffer avoid the per-call allocation of
// Apply on the scheduler's per-GoF hot path.
func (s *Standardizer) ApplyInto(dst, x []float64) []float64 {
	if len(x) != len(s.Mean) {
		panic(fmt.Sprintf("sched: standardizer got %d dims, want %d", len(x), len(s.Mean)))
	}
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	} else {
		dst = dst[:len(x)]
	}
	for i, v := range x {
		dst[i] = (v - s.Mean[i]) / s.Std[i]
	}
	return dst
}
