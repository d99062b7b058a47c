// Package track implements the parametric object trackers of the MBEK:
// MedianFlow, KCF, CSRT and dense Optical Flow — the four tracker types
// LiteReconfig inherits from ApproxDet (Sec. 4).
//
// A tracker is initialized from the detector's output on the first frame
// of a Group-of-Frames and then propagates each box across the remaining
// frames. The simulation models the behaviours the scheduler cares about:
// per-frame drift that grows with object speed, tracker failure
// probability, downsampling (ds) trading cost for drift, and per-object
// per-frame cost. Calibration preserves the classic ordering: CSRT is
// accurate but slow, KCF is the balanced default, MedianFlow is cheap and
// fragile, dense optical flow sits in between.
package track

import (
	"math"
	"slices"

	"litereconfig/internal/fastrand"
	"litereconfig/internal/geom"
	"litereconfig/internal/metric"
	"litereconfig/internal/vid"
)

// Kind identifies a tracker algorithm.
type Kind int

// The four tracker types of the MBEK.
const (
	MedianFlow Kind = iota
	KCF
	CSRT
	OptFlow

	// NumKinds is the number of tracker types.
	NumKinds int = iota
)

var kindNames = [NumKinds]string{"medianflow", "kcf", "csrt", "optflow"}

// String returns the canonical tracker name.
func (k Kind) String() string {
	if k < 0 || int(k) >= NumKinds {
		return "unknown"
	}
	return kindNames[k]
}

// KindByName resolves a tracker name.
func KindByName(name string) (Kind, bool) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// Kinds returns all tracker kinds.
func Kinds() []Kind { return []Kind{MedianFlow, KCF, CSRT, OptFlow} }

// DownsampleRatios are the ds knob values exposed by the MBEK.
var DownsampleRatios = []int{1, 2, 4}

// Params is a tracker algorithm's calibrated envelope.
type Params struct {
	Name string
	// Cost (TX2 ms at ds = 1): CostBase per frame plus CostPerObj per
	// tracked object.
	CostBase   float64
	CostPerObj float64
	// Drift is the per-frame center drift (fraction of object size) at
	// the reference speed; ScaleDrift is the per-frame log-scale drift.
	Drift      float64
	ScaleDrift float64
	// FailRate is the per-frame probability of losing the target at the
	// reference speed.
	FailRate float64
}

var params = [NumKinds]Params{
	MedianFlow: {Name: "medianflow", CostBase: 0.8, CostPerObj: 1.8,
		Drift: 0.050, ScaleDrift: 0.020, FailRate: 0.022},
	KCF: {Name: "kcf", CostBase: 1.0, CostPerObj: 2.8,
		Drift: 0.030, ScaleDrift: 0.014, FailRate: 0.012},
	CSRT: {Name: "csrt", CostBase: 1.5, CostPerObj: 11.0,
		Drift: 0.014, ScaleDrift: 0.008, FailRate: 0.005},
	OptFlow: {Name: "optflow", CostBase: 2.5, CostPerObj: 4.5,
		Drift: 0.022, ScaleDrift: 0.011, FailRate: 0.009},
}

// ParamsOf returns the calibrated parameters of a tracker kind.
func ParamsOf(k Kind) Params {
	if k < 0 || int(k) >= NumKinds {
		panic("track: invalid tracker kind")
	}
	return params[k]
}

// CostMS returns the base TX2 cost of one tracking step over nObj objects
// at downsampling ratio ds. Downsampling shrinks the input patch, cutting
// cost sublinearly.
func CostMS(k Kind, ds, nObj int) float64 {
	p := ParamsOf(k)
	if ds < 1 {
		ds = 1
	}
	dsf := math.Pow(float64(ds), 0.9)
	return p.CostBase + p.CostPerObj*float64(nObj)/dsf
}

// dsDriftFactor is the drift multiplier of downsampling.
func dsDriftFactor(ds int) float64 {
	if ds < 1 {
		ds = 1
	}
	return 1 + 0.40*float64(ds-1)
}

// speedFactor converts object speed (px/frame) into a drift/failure
// multiplier around a reference speed of ~6 px/frame.
func speedFactor(speed float64) float64 {
	return 0.35 + speed/6.0
}

// tracked is one propagated box.
type tracked struct {
	det      metric.Detection
	gtID     int // associated ground-truth object; -1 for a ghost (FP)
	offX     float64
	offY     float64
	logScale float64
	lost     bool
	lastVX   float64
	lastVY   float64
}

// Tracker propagates a set of boxes across a GoF. It is deterministic
// given its seed.
type Tracker struct {
	kind Kind
	ds   int
	// rng draws through Source's own NormFloat64 and Float64, which
	// give rand.New(rng)'s values without the interface calls.
	rng  *fastrand.Source
	objs []tracked

	// Init's scratch, kept so re-initializing allocates nothing: the
	// association order and the IDs of the objects already claimed.
	order []int
	taken []int
}

// New creates a tracker of the given kind and downsampling ratio. The
// seed fixes the stochastic drift/failure realization.
func New(kind Kind, ds int, seed int64) *Tracker {
	t := &Tracker{rng: fastrand.New(seed)}
	t.Reset(kind, ds, seed)
	return t
}

// Reset makes t the tracker New(kind, ds, seed) returns, reusing its
// buffers and reseeding its random source in place (the reseeded
// stream is a fresh source's, draw for draw).
func (t *Tracker) Reset(kind Kind, ds int, seed int64) {
	if ds < 1 {
		ds = 1
	}
	t.kind, t.ds = kind, ds
	t.rng.Seed(seed)
	t.objs = t.objs[:0]
}

// Kind returns the tracker algorithm.
func (t *Tracker) Kind() Kind { return t.kind }

// NumTracked returns the number of currently propagated boxes.
func (t *Tracker) NumTracked() int { return len(t.objs) }

// Init (re)initializes the tracker from detector output on frame f,
// associating each detection with the best-overlapping ground-truth
// object (one-to-one, score order). Unassociated detections become
// ghosts that drift without a target.
func (t *Tracker) Init(f vid.Frame, dets []metric.Detection) {
	t.objs = t.objs[:0]
	taken := t.taken[:0]
	// Associate in descending score order so confident detections claim
	// their objects first.
	order := t.order[:0]
	for i := range dets {
		order = append(order, i)
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if dets[order[j]].Score > dets[order[i]].Score {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for _, di := range order {
		d := dets[di]
		bestIoU, bestID := 0.0, -1
		var bestObj vid.Object
		for _, o := range f.Objects {
			if slices.Contains(taken, o.ID) {
				continue
			}
			if iou := d.Box.IoU(o.Box); iou > bestIoU {
				bestIoU, bestID, bestObj = iou, o.ID, o
			}
		}
		tr := tracked{det: d, gtID: -1}
		if bestID >= 0 && bestIoU >= 0.3 {
			taken = append(taken, bestID)
			tr.gtID = bestID
			// The tracker's error relative to the target starts at the
			// detector's localization error.
			tr.offX = d.Box.CenterX() - bestObj.Box.CenterX()
			tr.offY = d.Box.CenterY() - bestObj.Box.CenterY()
			if bestObj.Box.W > 0 {
				tr.logScale = math.Log(math.Max(d.Box.W/bestObj.Box.W, 1e-3))
			}
			tr.lastVX, tr.lastVY = bestObj.VX, bestObj.VY
		}
		t.objs = append(t.objs, tr)
	}
	t.order, t.taken = order, taken
}

// Step propagates all boxes to frame f of video v and returns the
// tracker's outputs for that frame.
func (t *Tracker) Step(v *vid.Video, f vid.Frame) []metric.Detection {
	p := ParamsOf(t.kind)
	clutter := v.Profile.Clutter
	dsf := dsDriftFactor(t.ds)

	out := make([]metric.Detection, 0, len(t.objs))
	for i := range t.objs {
		tr := &t.objs[i]
		// Confidence decays as the track ages.
		tr.det.Score *= 0.985

		o, present := objectByID(f.Objects, tr.gtID)
		switch {
		case tr.gtID < 0 || tr.lost || !present:
			// Ghost, lost, or occluded target: coast on the last velocity
			// with a small random walk.
			size := math.Sqrt(tr.det.Box.Area())
			tr.det.Box = tr.det.Box.Translate(
				tr.lastVX+t.rng.NormFloat64()*0.02*size,
				tr.lastVY+t.rng.NormFloat64()*0.02*size,
			).Clamp(float64(v.Width), float64(v.Height))
			tr.det.Score *= 0.96
		default:
			sf := speedFactor(o.Speed()) * dsf * (1 + 0.5*clutter)
			if !tr.lost && t.rng.Float64() < p.FailRate*sf {
				tr.lost = true
				tr.det.Score *= 0.9
				out = append(out, tr.det)
				continue
			}
			size := math.Sqrt(o.Box.Area())
			tr.offX += t.rng.NormFloat64() * p.Drift * size * sf
			tr.offY += t.rng.NormFloat64() * p.Drift * size * sf
			tr.logScale += t.rng.NormFloat64() * p.ScaleDrift * sf
			scale := math.Exp(tr.logScale)
			w, h := o.Box.W*scale, o.Box.H*scale
			cx := o.Box.CenterX() + tr.offX
			cy := o.Box.CenterY() + tr.offY
			tr.det.Box = (geomRect(cx-w/2, cy-h/2, w, h)).
				Clamp(float64(v.Width), float64(v.Height))
			tr.lastVX, tr.lastVY = o.VX, o.VY
		}
		if !tr.det.Box.Empty() && tr.det.Score > 0.01 {
			out = append(out, tr.det)
		}
	}
	return out
}

// objectByID returns the last object in objs with the given ID.
func objectByID(objs []vid.Object, id int) (vid.Object, bool) {
	for i := len(objs) - 1; i >= 0; i-- {
		if objs[i].ID == id {
			return objs[i], true
		}
	}
	return vid.Object{}, false
}

// geomRect is a local constructor avoiding an import rename.
func geomRect(x, y, w, h float64) geom.Rect { return geom.Rect{X: x, Y: y, W: w, H: h} }
