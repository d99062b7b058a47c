package metric

// The mAP scorer as it was before Scorer, kept as the reference the
// scorer must match bit for bit: every class's detections flattened
// across frames, ranked with a comparison sort on (score descending,
// frame, position), then swept once in rank order, each detection
// scanning its frame's truths. A NaN score makes its comparator
// inconsistent, so the reference is defined only without NaN scores.

import (
	"cmp"
	"slices"

	"litereconfig/internal/vid"
)

// flatDet is a detection flattened across frames for the ranked sweep.
type flatDet struct {
	frame int
	det   Detection
}

// rankKey is sortRanked's compact sort key for the detection at input
// position pos: 16 bytes against a flatDet's 56.
type rankKey struct {
	score      float64
	frame, pos int32
}

// referencePerClassAP is PerClassAP indexed by class, as it was before
// Scorer; classes with no ground truth hold the zero APResult.
func referencePerClassAP(frames []FrameResult, iouThresh float64) (out [vid.NumClasses]APResult) {
	// Count ground truth and detections per class, then bucket the
	// detections by class in input order: bucket c is
	// dets[start[c]:start[c+1]].
	var start [vid.NumClasses + 1]int
	for _, fr := range frames {
		for _, o := range fr.Truth {
			out[o.Class].Truths++
		}
		for _, d := range fr.Dets {
			start[d.Class+1]++
		}
	}
	for c := 1; c <= vid.NumClasses; c++ {
		start[c] += start[c-1]
	}
	dets := make([]flatDet, start[vid.NumClasses])
	keys := make([]rankKey, len(dets))
	next := start
	for fi, fr := range frames {
		for _, d := range fr.Dets {
			dets[next[d.Class]] = flatDet{frame: fi, det: d}
			next[d.Class]++
		}
	}

	for cls := range out {
		n := out[cls].Truths
		if n == 0 {
			continue
		}
		ds := dets[start[cls]:start[cls+1]]
		sortRankedKeys(ds, keys[start[cls]:start[cls+1]])
		out[cls].AP, out[cls].Matched = classAP(frames, ds, vid.Class(cls), n, iouThresh)
	}
	return out
}

// sortRanked orders detections by descending score, ties broken by
// ascending frame and then by input position: the order a stable sort
// on (score, frame) gives. The position makes that order total, so
// pdqsort reaches it without a stable sort's O(n log² n) merging. It
// sorts compact (score, frame, position) keys, then moves each
// detection once along the permutation's cycles. Frame indices and
// positions must fit in an int32.
func sortRanked(ds []flatDet) { sortRankedKeys(ds, make([]rankKey, len(ds))) }

// sortRankedKeys is sortRanked with the keys' storage, as long as ds,
// supplied by the caller.
func sortRankedKeys(ds []flatDet, keys []rankKey) {
	for i := range ds {
		keys[i] = rankKey{score: ds[i].det.Score, frame: int32(ds[i].frame), pos: int32(i)}
	}
	slices.SortFunc(keys, func(a, b rankKey) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(a.frame, b.frame); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	// Slot k takes the detection at keys[k].pos; follow each cycle,
	// marking placed slots by pointing their key at themselves.
	for i := range keys {
		if int(keys[i].pos) == i {
			continue
		}
		held, k := ds[i], i
		for int(keys[k].pos) != i {
			from := int(keys[k].pos)
			ds[k], keys[k].pos = ds[from], int32(k)
			k = from
		}
		ds[k], keys[k].pos = held, int32(k)
	}
}

// classAP runs the greedy matching sweep for one class over ds, which
// sortRanked has ordered.
func classAP(frames []FrameResult, ds []flatDet, cls vid.Class, nTruth int, iouThresh float64) (ap float64, matched int) {
	if nTruth == 0 || len(ds) == 0 {
		return 0, 0
	}

	// used marks ground-truth objects already claimed; frame fi's
	// objects are used[off[fi]:off[fi+1]].
	off := make([]int, len(frames)+1)
	for fi, fr := range frames {
		off[fi+1] = off[fi] + len(fr.Truth)
	}
	used := make([]bool, off[len(frames)])
	// prec[k] is the precision at the (k+1)-th true positive.
	prec := make([]float64, 0, nTruth)
	cumTP, cumFP := 0, 0
	for _, fd := range ds {
		truth := frames[fd.frame].Truth
		bestIoU := 0.0
		bestIdx := -1
		for gi, o := range truth {
			if o.Class != cls {
				continue
			}
			iou := fd.det.Box.IoU(o.Box)
			if iou > bestIoU {
				bestIoU = iou
				bestIdx = gi
			}
		}
		if bestIdx >= 0 && bestIoU >= iouThresh && !used[off[fd.frame]+bestIdx] {
			used[off[fd.frame]+bestIdx] = true
			cumTP++
			prec = append(prec, float64(cumTP)/float64(cumTP+cumFP))
		} else {
			cumFP++
		}
	}

	// All-point interpolated AP (the post-2010 VOC protocol): the sum
	// over ranks of the recall step times the precision envelope, the
	// max precision at any later rank. Only true positives step the
	// recall; a false positive's term is exactly +0 and leaves the sum
	// unchanged, and its precision is below the preceding true
	// positive's, so it never raises the envelope either.
	for k := len(prec) - 2; k >= 0; k-- {
		if prec[k] < prec[k+1] {
			prec[k] = prec[k+1]
		}
	}
	prevRec := 0.0
	for k, p := range prec {
		rec := float64(k+1) / float64(nTruth)
		ap += (rec - prevRec) * p
		prevRec = rec
	}
	return ap, cumTP
}

// referenceMeanAP is MeanAP as it was before Scorer.
func referenceMeanAP(frames []FrameResult, iouThresh float64) float64 {
	// Sum in ascending class order: float addition is not associative,
	// so a fixed order keeps mAP identical across calls.
	var sum float64
	classes := 0
	for _, r := range referencePerClassAP(frames, iouThresh) {
		if r.Truths > 0 {
			sum += r.AP
			classes++
		}
	}
	if classes == 0 {
		return 0
	}
	return sum / float64(classes)
}
