// Package metric implements the evaluation metrics of the paper: VOC-style
// mean average precision at IoU 0.5 for detection quality, and latency
// percentile statistics (mean, P95, SLO violation rate) for timing.
package metric

import (
	"cmp"
	"slices"

	"litereconfig/internal/geom"
	"litereconfig/internal/vid"
)

// Detection is one detector (or tracker) output box with a confidence
// score in [0, 1].
type Detection struct {
	Class vid.Class
	Box   geom.Rect
	Score float64
}

// FrameResult pairs one frame's ground truth with the system's detections
// on that frame.
type FrameResult struct {
	Truth []vid.Object
	Dets  []Detection
}

// DefaultIoU is the matching threshold used by the VID protocol.
const DefaultIoU = 0.5

// flatDet is a detection flattened across frames for the ranked sweep.
type flatDet struct {
	frame int
	det   Detection
}

// APResult holds the per-class average precision and ground-truth count.
type APResult struct {
	AP      float64
	Truths  int
	Matched int
}

// PerClassAP computes VOC-style average precision per class over the
// given frames at the given IoU threshold. Classes with no ground truth
// are omitted from the result.
func PerClassAP(frames []FrameResult, iouThresh float64) map[vid.Class]APResult {
	// Gather per-class ground truth counts and detections.
	truthCount := map[vid.Class]int{}
	dets := map[vid.Class][]flatDet{}
	for fi, fr := range frames {
		for _, o := range fr.Truth {
			truthCount[o.Class]++
		}
		for _, d := range fr.Dets {
			dets[d.Class] = append(dets[d.Class], flatDet{frame: fi, det: d})
		}
	}

	out := make(map[vid.Class]APResult, len(truthCount))
	for cls, n := range truthCount {
		sortRanked(dets[cls])
		ap, matched := classAP(frames, dets[cls], cls, n, iouThresh)
		out[cls] = APResult{AP: ap, Truths: n, Matched: matched}
	}
	return out
}

// sortRanked orders detections by descending score, ties broken by
// ascending frame; the stable sort keeps ties within a frame in input
// order, so the ranking is deterministic.
func sortRanked(ds []flatDet) {
	slices.SortStableFunc(ds, func(a, b flatDet) int {
		if a.det.Score != b.det.Score {
			if a.det.Score > b.det.Score {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.frame, b.frame)
	})
}

// classAP runs the greedy matching sweep for one class over ds, which
// sortRanked has ordered.
func classAP(frames []FrameResult, ds []flatDet, cls vid.Class, nTruth int, iouThresh float64) (ap float64, matched int) {
	if nTruth == 0 {
		return 0, 0
	}

	// used[frame] marks ground-truth objects already claimed.
	used := make(map[int][]bool, len(frames))
	tp := make([]int, 0, len(ds))
	fp := make([]int, 0, len(ds))
	cumTP, cumFP := 0, 0
	for _, fd := range ds {
		fr := frames[fd.frame]
		if used[fd.frame] == nil {
			used[fd.frame] = make([]bool, len(fr.Truth))
		}
		bestIoU := 0.0
		bestIdx := -1
		for gi, o := range fr.Truth {
			if o.Class != cls {
				continue
			}
			iou := fd.det.Box.IoU(o.Box)
			if iou > bestIoU {
				bestIoU = iou
				bestIdx = gi
			}
		}
		if bestIdx >= 0 && bestIoU >= iouThresh && !used[fd.frame][bestIdx] {
			used[fd.frame][bestIdx] = true
			cumTP++
		} else {
			cumFP++
		}
		tp = append(tp, cumTP)
		fp = append(fp, cumFP)
	}
	matched = cumTP

	// Precision/recall curve with the monotone precision envelope
	// (all-point interpolation, as in the post-2010 VOC protocol).
	n := len(tp)
	if n == 0 {
		return 0, 0
	}
	prec := make([]float64, n)
	rec := make([]float64, n)
	for i := 0; i < n; i++ {
		prec[i] = float64(tp[i]) / float64(tp[i]+fp[i])
		rec[i] = float64(tp[i]) / float64(nTruth)
	}
	// Envelope: precision at recall r is the max precision at recall >= r.
	for i := n - 2; i >= 0; i-- {
		if prec[i] < prec[i+1] {
			prec[i] = prec[i+1]
		}
	}
	prevRec := 0.0
	for i := 0; i < n; i++ {
		ap += (rec[i] - prevRec) * prec[i]
		prevRec = rec[i]
	}
	return ap, matched
}

// MeanAP computes the mean of the per-class APs (the paper's mAP metric)
// over the given frames. Frames with no ground truth anywhere yield 0.
func MeanAP(frames []FrameResult, iouThresh float64) float64 {
	per := PerClassAP(frames, iouThresh)
	if len(per) == 0 {
		return 0
	}
	// Sum in sorted class order: map iteration order is random and float
	// addition is not associative, so an unordered sum would make mAP
	// differ in the last ulp across calls on identical inputs.
	classes := make([]vid.Class, 0, len(per))
	for cls := range per {
		classes = append(classes, cls)
	}
	slices.Sort(classes)
	var sum float64
	for _, cls := range classes {
		sum += per[cls].AP
	}
	return sum / float64(len(per))
}
