// Package metric implements the evaluation metrics of the paper: VOC-style
// mean average precision at IoU 0.5 for detection quality, and latency
// percentile statistics (mean, P95, SLO violation rate) for timing.
package metric

import (
	"math"

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

// APResult holds the per-class average precision and ground-truth count.
type APResult struct {
	AP      float64
	Truths  int
	Matched int
}

// PerClassAP computes VOC-style average precision per class over the
// given frames at the given IoU threshold. Classes with no ground truth
// are omitted from the result. Every truth and detection class must be
// valid (vid.Class.Valid), and no detection score may be NaN.
func PerClassAP(frames []FrameResult, iouThresh float64) map[vid.Class]APResult {
	var s Scorer
	per := s.perClass(frames, iouThresh)
	out := make(map[vid.Class]APResult)
	for cls, r := range per {
		if r.Truths > 0 {
			out[vid.Class(cls)] = r
		}
	}
	return out
}

// MeanAP computes the mean of the per-class APs (the paper's mAP metric)
// over the given frames, whose classes and scores must be valid as for
// PerClassAP. Frames with no ground truth anywhere yield 0. It scores
// with a fresh Scorer; a caller that scores repeatedly keeps one.
func MeanAP(frames []FrameResult, iouThresh float64) float64 {
	var s Scorer
	return s.MeanAP(frames, iouThresh)
}

// Scorer computes VOC-style average precision with reusable scratch:
// once its buffers have grown to a workload, scoring it allocates
// nothing. The zero value is ready to use. A Scorer serves one
// goroutine at a time.
//
// The result is the greedy sweep's: rank each class's detections by
// descending score, ties by ascending frame and then by position, and
// let each detection in turn claim the unclaimed truth of its class and
// frame with the highest IoU at or above the threshold (true positive),
// or count as a false positive. A Scorer computes the same labels in
// another order: a detection's label depends only on the truths that
// earlier-ranked detections of its own frame and class claimed, and
// within one frame and class the ranking is (score descending,
// position ascending), so each frame is labeled on its own. Only the
// precision sweep needs the class-wide ranking; it sorts each class's
// compact (score key, label) items with a stable sort fed in (frame,
// position) order, which is exactly that ranking.
type Scorer struct {
	keys  []uint64   // a frame's detection rank keys, by position
	order []int32    // a frame's scored detections in rank order
	tp    []bool     // a frame's labels, by position
	used  []bool     // a frame's claimed truths
	items []rankItem // scored detections, bucketed by class
	tmp   []rankItem // the radix sort's second buffer
	prec  []float64  // a class's precision at each true positive
}

// rankItem is one detection in its class's ranking: its score key and
// its label.
type rankItem struct {
	key uint64
	tp  bool
}

// MeanAP is the package's MeanAP computed with s's scratch.
func (s *Scorer) MeanAP(frames []FrameResult, iouThresh float64) float64 {
	// Sum in ascending class order: float addition is not associative,
	// so a fixed order keeps mAP identical across calls.
	var sum float64
	classes := 0
	for _, r := range s.perClass(frames, iouThresh) {
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

// scoreKey maps a detection score to a key whose ascending order is the
// scores' descending order, equal keys for equal scores: −0 is folded
// onto +0, which it equals. A NaN score has no place in the ranking and
// panics.
func scoreKey(score float64) uint64 {
	if score != score {
		panic("metric: NaN detection score")
	}
	if score == 0 {
		score = 0
	}
	b := math.Float64bits(score)
	// The IEEE bits of a non-NaN value, with all bits flipped when it is
	// negative and the sign bit set otherwise, ascend with the value.
	if b>>63 != 0 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return ^b
}

// perClass is PerClassAP indexed by class; classes with no ground truth
// hold the zero APResult.
func (s *Scorer) perClass(frames []FrameResult, iouThresh float64) (out [vid.NumClasses]APResult) {
	var dets [vid.NumClasses]int
	for _, fr := range frames {
		for _, o := range fr.Truth {
			out[o.Class].Truths++
		}
		for _, d := range fr.Dets {
			dets[d.Class]++
		}
	}
	// Bucket the detections of classes with ground truth by class, in
	// input order: bucket c is items[start[c]:start[c+1]].
	var start [vid.NumClasses + 1]int
	for c := range dets {
		start[c+1] = start[c]
		if out[c].Truths > 0 {
			start[c+1] += dets[c]
		}
	}
	if n := start[vid.NumClasses]; cap(s.items) < n {
		s.items = make([]rankItem, n)
	}
	items := s.items[:start[vid.NumClasses]]
	next := start
	for _, fr := range frames {
		if len(fr.Dets) == 0 {
			continue
		}
		s.labelFrame(fr, &out, iouThresh)
		for p, d := range fr.Dets {
			if out[d.Class].Truths > 0 {
				items[next[d.Class]] = rankItem{key: s.keys[p], tp: s.tp[p]}
				next[d.Class]++
			}
		}
	}
	for cls := range out {
		if out[cls].Truths > 0 {
			out[cls].AP, out[cls].Matched = s.classAP(items[start[cls]:start[cls+1]], out[cls].Truths)
		}
	}
	return out
}

// labelFrame ranks one frame's detections of classes with ground truth
// by (class, score descending, position) and labels each in that order
// into s.tp, indexed by position; s.keys receives every detection's
// score key.
func (s *Scorer) labelFrame(fr FrameResult, out *[vid.NumClasses]APResult, iouThresh float64) {
	n := len(fr.Dets)
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
		s.tp = make([]bool, n)
		s.order = make([]int32, 0, n)
	}
	keys, tp := s.keys[:n], s.tp[:n]
	order := s.order[:0]
	for p, d := range fr.Dets {
		keys[p] = scoreKey(d.Score)
		if out[d.Class].Truths == 0 {
			continue
		}
		// Stable insertion: p goes after every equal (class, key).
		order = append(order, int32(p))
		for j := len(order) - 1; j > 0; j-- {
			q := fr.Dets[order[j-1]].Class
			if q < d.Class || (q == d.Class && keys[order[j-1]] <= keys[p]) {
				break
			}
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	s.order = order
	if cap(s.used) < len(fr.Truth) {
		s.used = make([]bool, len(fr.Truth))
	}
	used := s.used[:len(fr.Truth)]
	clear(used)
	for _, p := range order {
		d := &fr.Dets[p]
		tp[p] = false
		// A truth whose x or y interval does not overlap the detection's
		// has IoU 0 (or NaN, for a NaN coordinate beside the disjoint
		// pair), which never beats bestIoU; those skip Rect.IoU.
		x0, x1 := d.Box.X, d.Box.MaxX()
		y0, y1 := d.Box.Y, d.Box.MaxY()
		bestIoU := 0.0
		bestIdx := -1
		for gi := range fr.Truth {
			o := &fr.Truth[gi]
			if o.Class != d.Class || x1 <= o.Box.X || o.Box.MaxX() <= x0 ||
				y1 <= o.Box.Y || o.Box.MaxY() <= y0 {
				continue
			}
			if iou := d.Box.IoU(o.Box); iou > bestIoU {
				bestIoU = iou
				bestIdx = gi
			}
		}
		if bestIdx >= 0 && bestIoU >= iouThresh && !used[bestIdx] {
			used[bestIdx] = true
			tp[p] = true
		}
	}
}

// classAP ranks one class's items, given in (frame, position) order,
// and returns the class's AP and true-positive count.
func (s *Scorer) classAP(items []rankItem, nTruth int) (ap float64, matched int) {
	if len(items) == 0 {
		return 0, 0
	}
	ranked := s.rank(items)
	// prec[k] is the precision at the (k+1)-th true positive.
	prec := s.prec[:0]
	cumTP, cumFP := 0, 0
	for _, it := range ranked {
		if it.tp {
			cumTP++
			prec = append(prec, float64(cumTP)/float64(cumTP+cumFP))
		} else {
			cumFP++
		}
	}
	s.prec = prec

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

// insertionMax is the length up to which rank sorts by insertion: below
// it, a radix sort's per-pass counting costs more than the compares.
const insertionMax = 32

// rank sorts items stably by ascending key and returns the sorted
// slice, which is items or s.tmp. Both sorts are stable on the same
// key, so they give the same order.
func (s *Scorer) rank(items []rankItem) []rankItem {
	if len(items) <= insertionMax {
		for i := 1; i < len(items); i++ {
			for j := i; j > 0 && items[j-1].key > items[j].key; j-- {
				items[j], items[j-1] = items[j-1], items[j]
			}
		}
		return items
	}
	// LSD radix sort, one byte per pass, skipping the bytes every key
	// shares.
	if cap(s.tmp) < len(items) {
		s.tmp = make([]rankItem, len(items))
	}
	src, dst := items, s.tmp[:len(items)]
	var diff uint64
	for _, it := range src {
		diff |= it.key ^ src[0].key
	}
	for shift := uint(0); shift < 64; shift += 8 {
		if (diff>>shift)&0xFF == 0 {
			continue
		}
		var count [256]int
		for _, it := range src {
			count[(it.key>>shift)&0xFF]++
		}
		sum := 0
		for b, c := range count {
			count[b] = sum
			sum += c
		}
		for _, it := range src {
			b := (it.key >> shift) & 0xFF
			dst[count[b]] = it
			count[b]++
		}
		src, dst = dst, src
	}
	return src
}
