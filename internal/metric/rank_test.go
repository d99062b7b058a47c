package metric

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"litereconfig/internal/vid"
)

// legacyRank is the reflection-based ranking PerClassAP used before
// sortRanked; the two must order every input identically.
func legacyRank(ds []flatDet) {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].det.Score != ds[j].det.Score {
			return ds[i].det.Score > ds[j].det.Score
		}
		return ds[i].frame < ds[j].frame
	})
}

// tiedScene draws frames whose detection scores come from a handful of
// values, so most detections tie on score and many tie on frame too,
// and the boxes differ, so any reordering of ties changes the match.
func tiedScene(rng *rand.Rand, frames int) []FrameResult {
	scores := []float64{0.2, 0.5, 0.5000000000000001, 0.9, 1}
	out := make([]FrameResult, frames)
	for f := range out {
		for i := rng.Intn(4); i > 0; i-- {
			out[f].Truth = append(out[f].Truth, vid.Object{ID: i,
				Class: vid.Class(rng.Intn(3)),
				Box:   box(rng.Float64()*50, rng.Float64()*50, 10+rng.Float64()*20, 10+rng.Float64()*20)})
		}
		for i := rng.Intn(8); i > 0; i-- {
			out[f].Dets = append(out[f].Dets, Detection{Class: vid.Class(rng.Intn(3)),
				Box:   box(rng.Float64()*50, rng.Float64()*50, 10+rng.Float64()*20, 10+rng.Float64()*20),
				Score: scores[rng.Intn(len(scores))]})
		}
	}
	return out
}

func TestPerClassAPMatchesLegacyRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		frames := tiedScene(rng, 1+rng.Intn(40))
		got := PerClassAP(frames, DefaultIoU)

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
		if len(got) != len(truthCount) {
			t.Fatalf("trial %d: %d classes, want %d", trial, len(got), len(truthCount))
		}
		for cls, n := range truthCount {
			ranked := append([]flatDet(nil), dets[cls]...)
			legacyRank(ranked)
			mine := append([]flatDet(nil), dets[cls]...)
			sortRanked(mine)
			for i := range ranked {
				if ranked[i] != mine[i] {
					t.Fatalf("trial %d class %v: rank %d = %+v, legacy sort gives %+v", trial, cls, i, mine[i], ranked[i])
				}
			}
			ap, matched := classAP(frames, ranked, cls, n, DefaultIoU)
			if want := (APResult{AP: ap, Truths: n, Matched: matched}); got[cls] != want {
				t.Fatalf("trial %d class %v: PerClassAP = %+v, legacy ranking gives %+v", trial, cls, got[cls], want)
			}
		}
	}
}

// curveAP is classAP computed the textbook way: cumulative TP/FP counts
// at every rank, the full precision/recall curve, its monotone envelope
// and the recall-step sum over every rank.
func curveAP(frames []FrameResult, ds []flatDet, cls vid.Class, nTruth int, iouThresh float64) (ap float64, matched int) {
	used := map[int][]bool{}
	var tp, fp []int
	cumTP, cumFP := 0, 0
	for _, fd := range ds {
		fr := frames[fd.frame]
		if used[fd.frame] == nil {
			used[fd.frame] = make([]bool, len(fr.Truth))
		}
		bestIoU, bestIdx := 0.0, -1
		for gi, o := range fr.Truth {
			if o.Class == cls {
				if iou := fd.det.Box.IoU(o.Box); iou > bestIoU {
					bestIoU, bestIdx = iou, gi
				}
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
	n := len(tp)
	if nTruth == 0 || n == 0 {
		return 0, 0
	}
	prec := make([]float64, n)
	rec := make([]float64, n)
	for i := range prec {
		prec[i] = float64(tp[i]) / float64(tp[i]+fp[i])
		rec[i] = float64(tp[i]) / float64(nTruth)
	}
	for i := n - 2; i >= 0; i-- {
		if prec[i] < prec[i+1] {
			prec[i] = prec[i+1]
		}
	}
	prevRec := 0.0
	for i := range prec {
		ap += (rec[i] - prevRec) * prec[i]
		prevRec = rec[i]
	}
	return ap, cumTP
}

// TestClassAPMatchesPrecisionRecallCurve checks that summing over true
// positives only gives the full curve's AP bit for bit.
func TestClassAPMatchesPrecisionRecallCurve(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		frames := tiedScene(rng, 1+rng.Intn(40))
		for cls := vid.Class(0); cls < 3; cls++ {
			var ds []flatDet
			n := 0
			for fi, fr := range frames {
				for _, o := range fr.Truth {
					if o.Class == cls {
						n++
					}
				}
				for _, d := range fr.Dets {
					if d.Class == cls {
						ds = append(ds, flatDet{frame: fi, det: d})
					}
				}
			}
			sortRanked(ds)
			ap, m := classAP(frames, ds, cls, n, DefaultIoU)
			wantAP, wantM := curveAP(frames, ds, cls, n, DefaultIoU)
			if math.Float64bits(ap) != math.Float64bits(wantAP) || m != wantM {
				t.Fatalf("trial %d class %v: classAP = (%v, %d), full curve gives (%v, %d)", trial, cls, ap, m, wantAP, wantM)
			}
		}
	}
}
