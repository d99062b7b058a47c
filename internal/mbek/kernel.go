package mbek

import (
	"math/rand"

	"litereconfig/internal/detect"
	"litereconfig/internal/metric"
	"litereconfig/internal/simlat"
	"litereconfig/internal/track"
	"litereconfig/internal/vid"
)

// Component labels used when charging the clock; the Figure 3 breakdown
// plots these.
const (
	CompDetector = "detector"
	CompTracker  = "tracker"
	CompSwitch   = "switch"
)

// ColdMissProb is the probability that an online branch switch hits a
// cold graph miss, producing the 1-5 s outliers of Figure 5(b).
const ColdMissProb = 0.003

// Kernel executes one branch at a time over a streaming video. All
// simulated work is charged to the clock.
type Kernel struct {
	Det   detect.Model
	Clock *simlat.Clock

	video     *vid.Video
	branch    Branch
	hasBranch bool
	// tracker is reset in place at every GoF start that needs one, so
	// it and its random source are allocated once per kernel.
	tracker *track.Tracker
	// detRng is the detector passes' source, reseeded by every pass.
	detRng     *rand.Rand
	frameInGoF int
	// ColdMisses disables the online cold-miss outliers when false
	// (offline measurement mode).
	ColdMisses bool

	switches  int
	usedSet   map[Branch]int
	switchLog []SwitchEvent

	// lastDetActualMS and lastDetBaseMS record the most recent detector
	// pass: the simulated cost actually charged and the branch's base
	// (TX2, zero-contention) cost. Contention sensors divide the two to
	// estimate the current GPU contention level.
	lastDetActualMS float64
	lastDetBaseMS   float64
	// lastTrkActualMS / lastTrkBaseMS are the same observation for the
	// most recent tracker step (CPU-side drift estimation, Sec. 6).
	lastTrkActualMS float64
	lastTrkBaseMS   float64
	// detBaseTotalMS / trkBaseTotalMS accumulate the base (TX2,
	// zero-contention) cost of every executed detector pass and tracker
	// step since kernel construction. The online-adaptation harness
	// diffs them across GoF boundaries to recover the exact base-unit
	// cost of each completed GoF — the refit target that keeps device
	// scaling and contention out of the learned coefficients.
	detBaseTotalMS float64
	trkBaseTotalMS float64
}

// SwitchEvent records one online branch transition and its charged cost,
// feeding the Figure 5(b) heatmap.
type SwitchEvent struct {
	Frame  int
	From   Branch
	To     Branch
	CostMS float64
}

// NewKernel creates a kernel around the given detector model and clock.
// Its detector source and tracker are built here, once, and reseeded by
// every GoF, so no Group-of-Frames seeds a fresh random source.
func NewKernel(det detect.Model, clock *simlat.Clock) *Kernel {
	k := newKernel(det, clock)
	k.detRng = detect.NewRand()
	k.tracker = track.New(track.KCF, 1, 0)
	return k
}

// newKernel is NewKernel without the up-front random sources, for
// EvalBranchGroup's short-lived kernels: they never run a detector pass
// of their own and build a tracker only when their branch needs one.
func newKernel(det detect.Model, clock *simlat.Clock) *Kernel {
	return &Kernel{Det: det, Clock: clock, ColdMisses: true,
		usedSet: map[Branch]int{}}
}

// Start resets the kernel for a new video without resetting branch usage
// statistics.
func (k *Kernel) Start(v *vid.Video) {
	k.video = v
	k.frameInGoF = 0
	k.hasBranch = false
}

// Branch returns the currently configured branch.
func (k *Kernel) Branch() Branch { return k.branch }

// HasBranch reports whether a branch has been configured since Start.
func (k *Kernel) HasBranch() bool { return k.hasBranch }

// AtGoFBoundary reports whether the next ProcessFrame call starts a new
// Group-of-Frames (i.e. the scheduler may reconfigure now).
func (k *Kernel) AtGoFBoundary() bool { return k.frameInGoF == 0 }

// Switches returns the number of branch transitions performed.
func (k *Kernel) Switches() int { return k.switches }

// BranchCoverage returns the number of distinct branches executed so far
// (Figure 4's metric).
func (k *Kernel) BranchCoverage() int { return len(k.usedSet) }

// SwitchLog returns the recorded switch events.
func (k *Kernel) SwitchLog() []SwitchEvent { return k.switchLog }

// SetBranch reconfigures the kernel to branch b effective at frame
// frameIdx, charging the switching cost. It must only be called at a GoF
// boundary. It returns the charged switch cost (0 when b is already
// active).
func (k *Kernel) SetBranch(b Branch, frameIdx int) float64 {
	if !k.AtGoFBoundary() {
		panic("mbek: SetBranch outside GoF boundary")
	}
	if k.hasBranch && b == k.branch {
		return 0
	}
	var cost float64
	if k.hasBranch {
		cost = SwitchCostMS(k.branch, b)
		if k.ColdMisses && k.Clock.Rand().Float64() < ColdMissProb {
			// Cold miss of a neural-network graph: a 1-5 s stall.
			cost += 1000 + k.Clock.Rand().Float64()*4000
		}
		cost = k.Clock.ChargeExact(CompSwitch, cost)
		k.switches++
		k.switchLog = append(k.switchLog, SwitchEvent{
			Frame: frameIdx, From: k.branch, To: b, CostMS: cost,
		})
	}
	k.branch = b
	k.hasBranch = true
	k.frameInGoF = 0
	return cost
}

// trackerSeed derives the deterministic tracker seed for a GoF.
func trackerSeed(v *vid.Video, frame int, b Branch) int64 {
	h := v.Seed*2654435761 + int64(frame)*40503
	h = h*31 + int64(b.Shape)
	h = h*31 + int64(b.NProp)
	h = h*31 + int64(b.Tracker)
	h = h*31 + int64(b.GoF)
	h = h*31 + int64(b.DS)
	return h
}

// ProcessFrame executes the current branch on frame f: a detector pass on
// the first frame of each GoF (re-initializing the tracker), a tracker
// step on the rest. It returns the frame's detections.
func (k *Kernel) ProcessFrame(f vid.Frame) []metric.Detection {
	if k.hasBranch && k.frameInGoF == 0 {
		return k.processFrame(f, k.Det.DetectWith(k.detRng, k.video, f, k.branch.DetConfig()))
	}
	return k.processFrame(f, nil)
}

// processFrame is ProcessFrame given the detector's output on f, which
// it reads only at a GoF start and which must then be what k.Det.Detect
// returns for f under the branch's configuration. EvalBranchGroup runs
// that pass once for all the branches of one configuration.
func (k *Kernel) processFrame(f vid.Frame, dets []metric.Detection) []metric.Detection {
	if !k.hasBranch {
		panic("mbek: ProcessFrame before SetBranch")
	}
	k.usedSet[k.branch]++
	if k.frameInGoF == 0 {
		k.lastDetBaseMS = k.Det.CostMS(k.branch.DetConfig())
		k.detBaseTotalMS += k.lastDetBaseMS
		k.lastDetActualMS = k.Clock.Charge(CompDetector, simlat.GPU, k.lastDetBaseMS)
		if k.branch.GoF > 1 {
			seed := trackerSeed(k.video, f.Index, k.branch)
			if k.tracker == nil {
				k.tracker = track.New(k.branch.Tracker, k.branch.DS, seed)
			} else {
				k.tracker.Reset(k.branch.Tracker, k.branch.DS, seed)
			}
			k.tracker.Init(f, dets)
		}
	} else {
		k.lastTrkBaseMS = track.CostMS(k.branch.Tracker, k.branch.DS, k.tracker.NumTracked())
		k.trkBaseTotalMS += k.lastTrkBaseMS
		k.lastTrkActualMS = k.Clock.Charge(CompTracker, simlat.CPU, k.lastTrkBaseMS)
		dets = k.tracker.Step(k.video, f)
	}
	k.frameInGoF++
	if k.frameInGoF >= k.branch.GoF {
		k.frameInGoF = 0
	}
	return dets
}

// DetectorSharesFrame reports whether the detector will run on the next
// processed frame — true exactly at GoF boundaries. The scheduler uses
// this to price detector-shared features (ResNet50, CPoP) at their
// pooled cost.
func (k *Kernel) DetectorSharesFrame() bool { return k.AtGoFBoundary() }

// LastDetectorObservation returns the most recent detector pass's actual
// charged cost and its base (TX2, zero-contention) cost. Both are zero
// before the first detector pass.
func (k *Kernel) LastDetectorObservation() (actualMS, baseMS float64) {
	return k.lastDetActualMS, k.lastDetBaseMS
}

// LastTrackerObservation returns the most recent tracker step's actual
// charged cost and its base (TX2) cost. Both are zero before the first
// tracker step.
func (k *Kernel) LastTrackerObservation() (actualMS, baseMS float64) {
	return k.lastTrkActualMS, k.lastTrkBaseMS
}

// BaseCostTotals returns the cumulative base (TX2, zero-contention)
// detector and tracker cost of all work executed so far. Diffing two
// snapshots brackets the base cost of everything between them.
func (k *Kernel) BaseCostTotals() (detMS, trkMS float64) {
	return k.detBaseTotalMS, k.trkBaseTotalMS
}
