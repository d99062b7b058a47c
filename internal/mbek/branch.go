// Package mbek implements the Multi-Branch Execution Kernel (Sec. 2.4):
// an ApproxDet-style tracking-by-detection pipeline whose execution
// branches are defined by five knobs — detector input shape, number of
// region proposals (nprop), tracker type, Group-of-Frames size (si,
// detector on the first frame, tracker on the rest), and tracker
// downsampling ratio (ds).
//
// The kernel executes one branch at a time over a streaming video,
// charging all work to a simlat.Clock, and supports switching branches at
// GoF boundaries with a pair-dependent switching cost (Sec. 3.5).
package mbek

import (
	"fmt"
	"math"

	"litereconfig/internal/detect"
	"litereconfig/internal/track"
)

// Branch is one execution branch of the MBEK.
type Branch struct {
	Shape   int        // detector input short side
	NProp   int        // region proposals
	Tracker track.Kind // tracker type (ignored when GoF == 1)
	GoF     int        // frames per Group-of-Frames; 1 = detect every frame
	DS      int        // tracker downsampling ratio (ignored when GoF == 1)
}

// String renders the branch in the paper's (shape, nprop) style extended
// with the tracker knobs, e.g. "s448_n20_kcf_g8_d2".
func (b Branch) String() string {
	if b.GoF <= 1 {
		return fmt.Sprintf("s%d_n%d_det", b.Shape, b.NProp)
	}
	return fmt.Sprintf("s%d_n%d_%s_g%d_d%d", b.Shape, b.NProp, b.Tracker, b.GoF, b.DS)
}

// DetConfig returns the detector configuration of the branch.
func (b Branch) DetConfig() detect.Config {
	return detect.Config{Shape: b.Shape, NProp: b.NProp}
}

// Weight is the normalized "heaviness" of the branch's detector
// configuration in [0, 1]; the switching-cost model and Figure 5 use it.
func (b Branch) Weight() float64 {
	s := float64(b.Shape) / 576.0
	n := float64(b.NProp) / 100.0
	return s * s * (0.3 + 0.7*n)
}

// GoF sizes exposed by the kernel (si knob). Size 1 means the detector
// runs on every frame with no tracker.
var GoFSizes = []int{1, 2, 4, 8, 20}

// branchNProps is the proposal subset enumerated in the default space
// (the full ApproxDet grid is larger; this keeps the space tractable
// while spanning the same envelope).
var branchNProps = []int{1, 5, 20, 100}

// DefaultBranches enumerates the kernel's branch space in a stable,
// deterministic order. Detector-only branches (GoF 1) collapse the
// tracker knobs. The default space has 4 shapes x 4 nprops x
// (1 + 4 trackers x 4 GoF sizes x 2 ds) = 528 branches.
func DefaultBranches() []Branch {
	var out []Branch
	for _, shape := range detect.Shapes {
		for _, np := range branchNProps {
			out = append(out, Branch{Shape: shape, NProp: np, GoF: 1,
				Tracker: track.KCF, DS: 1})
			for _, tk := range track.Kinds() {
				for _, gof := range GoFSizes {
					if gof == 1 {
						continue
					}
					for _, ds := range []int{1, 4} {
						out = append(out, Branch{Shape: shape, NProp: np,
							Tracker: tk, GoF: gof, DS: ds})
					}
				}
			}
		}
	}
	return out
}

// BranchIndex builds a lookup from branch value to its position in the
// given slice.
func BranchIndex(branches []Branch) map[Branch]int {
	m := make(map[Branch]int, len(branches))
	for i, b := range branches {
		m[b] = i
	}
	return m
}

// MinCostBranch returns the branch from the set with the lowest detector
// weight and longest GoF — the fallback the scheduler uses when nothing
// fits the SLO.
func MinCostBranch(branches []Branch) Branch {
	best := branches[0]
	bestCost := math.Inf(1)
	for _, b := range branches {
		// Approximate per-frame cost: detector amortized over the GoF
		// plus one cheap tracker step.
		det := detect.FasterRCNN.CostMS(b.DetConfig()) / float64(b.GoF)
		trk := 0.0
		if b.GoF > 1 {
			trk = track.CostMS(b.Tracker, b.DS, 2)
		}
		if c := det + trk; c < bestCost {
			bestCost = c
			best = b
		}
	}
	return best
}

// SwitchCostRow fills dst, which must be as long as to, with the offline
// row C(from, ·): dst[i] = SwitchCostMS(from, to[i]). It returns dst.
func SwitchCostRow(dst []float64, from Branch, to []Branch) []float64 {
	dst = dst[:len(to)]
	for i, b := range to {
		dst[i] = SwitchCostMS(from, b)
	}
	return dst
}

// SwitchCostMS is the offline switching-cost model C(b0, b): the latency
// penalty of the first inference after moving from branch `from` to
// branch `to`. Per the paper's Figure 5, costs are generally below 10 ms
// but rise with a light source branch (cold destination graph regions)
// and with a heavy destination branch. Staying put is free.
func SwitchCostMS(from, to Branch) float64 {
	if from == to {
		return 0
	}
	cost := 0.8 + 5.5*to.Weight() + 2.0*(1-from.Weight())
	if from.Tracker != to.Tracker && to.GoF > 1 {
		cost += 1.0
	}
	if from.GoF != to.GoF || from.DS != to.DS {
		cost += 0.2
	}
	return cost
}
