package nn

import (
	"fmt"
	"math/rand"

	"litereconfig/internal/fastrand"
)

// Trainer holds the supervised training recipe from Sec. 4 of the paper:
// MSE loss, SGD with momentum 0.9, L2 regularization, batch size 64, up
// to 400 epochs (the paper observes convergence within 100).
type Trainer struct {
	LR       float64 // learning rate; defaults to 0.01
	Momentum float64 // defaults to 0.9
	L2       float64 // weight decay; defaults to 1e-4
	Epochs   int     // max epochs; defaults to 400
	Batch    int     // minibatch size; defaults to 64
	Seed     int64   // shuffle seed

	// Early stopping: training ends once the epoch loss fails to improve
	// by at least Tol for Patience consecutive epochs. Patience 0 disables
	// early stopping.
	Tol      float64
	Patience int
}

func (t *Trainer) applyDefaults() {
	if t.LR == 0 {
		t.LR = 0.01
	}
	if t.Momentum == 0 {
		t.Momentum = 0.9
	}
	if t.L2 == 0 {
		t.L2 = 1e-4
	}
	if t.Epochs == 0 {
		t.Epochs = 400
	}
	if t.Batch == 0 {
		t.Batch = 64
	}
}

// FitNet trains a plain MLP on (xs, ys) pairs and returns the per-epoch
// mean losses.
func (tr Trainer) FitNet(n *Net, xs, ys [][]float64) []float64 {
	tr.applyDefaults()
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("nn: %d inputs vs %d targets", len(xs), len(ys)))
	}
	if len(xs) == 0 {
		return nil
	}
	forward := func(i int, grad []float64) float64 {
		pred := n.Forward(xs[i])
		loss := MSEGrad(pred, ys[i], grad)
		n.Backward(grad)
		return loss
	}
	return tr.run(len(xs), len(ys[0]), forward, n.Step)
}

// FitTwoTower trains a TwoTower model on (as, bs, ys) triples and returns
// the per-epoch mean losses.
func (tr Trainer) FitTwoTower(t *TwoTower, as, bs, ys [][]float64) []float64 {
	tr.applyDefaults()
	if len(as) != len(bs) || len(as) != len(ys) {
		panic(fmt.Sprintf("nn: sample count mismatch %d/%d/%d", len(as), len(bs), len(ys)))
	}
	if len(as) == 0 {
		return nil
	}
	forward := func(i int, grad []float64) float64 {
		pred := t.Forward(as[i], bs[i])
		loss := MSEGrad(pred, ys[i], grad)
		t.Backward(grad)
		return loss
	}
	return tr.run(len(as), len(ys[0]), forward, t.Step)
}

// run is the shared epoch/minibatch loop. forward processes one sample
// (accumulating gradients) and returns its loss; step applies the update.
func (tr Trainer) run(n, outDim int,
	forward func(i int, grad []float64) float64,
	step func(lr, momentum, l2 float64, batch int)) []float64 {

	rng := rand.New(fastrand.New(tr.Seed))
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	grad := make([]float64, outDim)

	var losses []float64
	best := -1.0
	stale := 0
	for epoch := 0; epoch < tr.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < n; start += tr.Batch {
			end := start + tr.Batch
			if end > n {
				end = n
			}
			for _, i := range idx[start:end] {
				epochLoss += forward(i, grad)
			}
			step(tr.LR, tr.Momentum, tr.L2, end-start)
		}
		epochLoss /= float64(n)
		losses = append(losses, epochLoss)

		if tr.Patience > 0 {
			if best < 0 || epochLoss < best-tr.Tol {
				best = epochLoss
				stale = 0
			} else {
				stale++
				if stale >= tr.Patience {
					break
				}
			}
		}
	}
	return losses
}
