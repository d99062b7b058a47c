package nn

import (
	"errors"
	"fmt"
	"math/rand"

	"litereconfig/internal/fastrand"
)

// Net is a plain multilayer perceptron: dense layers with ReLU on all but
// the last.
type Net struct {
	Layers []*Dense
}

// NewNet builds an MLP with the given layer sizes (sizes[0] is the input
// dimension, sizes[len-1] the output dimension). All hidden layers use
// ReLU; the output layer is linear.
func NewNet(seed int64, sizes ...int) *Net {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	rng := rand.New(fastrand.New(seed))
	n := &Net{}
	for i := 0; i+1 < len(sizes); i++ {
		relu := i+2 < len(sizes)
		n.Layers = append(n.Layers, NewDense(sizes[i], sizes[i+1], relu, rng))
	}
	return n
}

// Forward runs the network. The returned slice is owned by the last layer.
func (n *Net) Forward(x []float64) []float64 {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Scratch holds the forward buffers of the inference path (Net.Infer,
// TwoTower.Infer). The zero value is ready to use; buffers grow on first
// use and are reused afterwards, so a warm Scratch makes inference
// allocation free. A Scratch serves one goroutine at a time, while the
// networks it runs stay read-only and may be shared.
type Scratch struct {
	buf    [2][]float64 // ping-pong layer outputs
	concat []float64    // TwoTower projection concatenation
}

// grow returns a length-n view of s.buf[i], allocating only when its
// capacity is short.
func (s *Scratch) grow(i, n int) []float64 {
	if cap(s.buf[i]) < n {
		s.buf[i] = make([]float64, n)
	}
	return s.buf[i][:n]
}

// Infer runs the network without writing to it: the same arithmetic in
// the same order as Forward, with the layer outputs in s. The returned
// slice belongs to s and is overwritten by its next use; x must not
// alias a buffer of s. Every layer must be frozen (Freeze).
func (n *Net) Infer(s *Scratch, x []float64) []float64 {
	for i, l := range n.Layers {
		x = l.Infer(s.grow(i%2, l.Out), x)
	}
	return x
}

// Check reports an error when the network is missing, has no layers,
// or holds a layer that fails Dense.Check or whose input width is not
// the previous layer's output width.
func (n *Net) Check() error {
	if n == nil || len(n.Layers) == 0 {
		return errors.New("missing network")
	}
	for i, l := range n.Layers {
		if err := l.Check(); err != nil {
			return fmt.Errorf("layer %d: %w", i, err)
		}
		if i > 0 && l.In != n.Layers[i-1].Out {
			return fmt.Errorf("layer %d takes %d inputs from %d outputs", i, l.In, n.Layers[i-1].Out)
		}
	}
	return nil
}

// Freeze freezes every layer for Infer (Dense.Freeze).
func (n *Net) Freeze() {
	for _, l := range n.Layers {
		l.Freeze()
	}
}

// Backward propagates an output gradient through all layers, accumulating
// parameter gradients, and returns the input gradient.
func (n *Net) Backward(gout []float64) []float64 {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		gout = n.Layers[i].Backward(gout)
	}
	return gout
}

// Step applies the optimizer update to every layer.
func (n *Net) Step(lr, momentum, l2 float64, batch int) {
	for _, l := range n.Layers {
		l.Step(lr, momentum, l2, batch)
	}
}

// ParamCount returns the total number of trainable parameters.
func (n *Net) ParamCount() int {
	total := 0
	for _, l := range n.Layers {
		total += l.ParamCount()
	}
	return total
}

// MSEGrad computes the mean-squared-error loss between pred and target
// and writes dLoss/dPred into grad (which must have the same length).
// The loss is averaged over output dimensions.
func MSEGrad(pred, target, grad []float64) float64 {
	if len(pred) != len(target) || len(pred) != len(grad) {
		panic(fmt.Sprintf("nn: MSE size mismatch %d/%d/%d", len(pred), len(target), len(grad)))
	}
	var loss float64
	inv := 1.0 / float64(len(pred))
	for i := range pred {
		d := pred[i] - target[i]
		loss += d * d
		grad[i] = 2 * d * inv
	}
	return loss * inv
}

// TwoTower is the paper's accuracy-predictor architecture (Sec. 4): the
// light-weight feature vector and the content-feature vector are each
// projected by a fully connected layer into ProjDim-sized vectors, the two
// projections are concatenated, and a trunk MLP maps the concatenation to
// one output per execution branch.
type TwoTower struct {
	ProjA *Dense // light-weight feature projection
	ProjB *Dense // content feature projection
	Trunk *Net

	concat []float64
}

// TwoTowerConfig sizes a TwoTower network.
type TwoTowerConfig struct {
	InA, InB int   // input dims of the two towers
	ProjDim  int   // projection width (paper: 256)
	Hidden   []int // trunk hidden layer widths (paper: 256 x 4 for a 6-layer net)
	Out      int   // number of execution branches M
	Seed     int64
}

// NewTwoTower builds the two-tower network.
func NewTwoTower(cfg TwoTowerConfig) *TwoTower {
	rng := rand.New(fastrand.New(cfg.Seed))
	t := &TwoTower{
		ProjA: NewDense(cfg.InA, cfg.ProjDim, false, rng),
		ProjB: NewDense(cfg.InB, cfg.ProjDim, false, rng),
	}
	sizes := append([]int{2 * cfg.ProjDim}, cfg.Hidden...)
	sizes = append(sizes, cfg.Out)
	trunk := &Net{}
	for i := 0; i+1 < len(sizes); i++ {
		relu := i+2 < len(sizes)
		trunk.Layers = append(trunk.Layers, NewDense(sizes[i], sizes[i+1], relu, rng))
	}
	t.Trunk = trunk
	t.concat = make([]float64, 2*cfg.ProjDim)
	return t
}

// Forward runs the two-tower network on the (light, content) input pair.
func (t *TwoTower) Forward(a, b []float64) []float64 {
	if len(t.concat) != t.ProjA.Out+t.ProjB.Out {
		// Reallocated lazily so gob-decoded models work.
		t.concat = make([]float64, t.ProjA.Out+t.ProjB.Out)
	}
	pa := t.ProjA.Forward(a)
	pb := t.ProjB.Forward(b)
	copy(t.concat, pa)
	copy(t.concat[len(pa):], pb)
	return t.Trunk.Forward(t.concat)
}

// Infer is the read-only counterpart of Forward: the two projections
// land in s's concatenation buffer and the trunk runs through s. The
// returned slice belongs to s.
func (t *TwoTower) Infer(s *Scratch, a, b []float64) []float64 {
	na, n := t.ProjA.Out, t.ProjA.Out+t.ProjB.Out
	if cap(s.concat) < n {
		s.concat = make([]float64, n)
	}
	s.concat = s.concat[:n]
	t.ProjA.Infer(s.concat[:na], a)
	t.ProjB.Infer(s.concat[na:], b)
	return t.Trunk.Infer(s, s.concat)
}

// Check reports an error when a tower or the trunk is missing or fails
// its own Check, or when the trunk's input width is not the two
// projections' combined width.
func (t *TwoTower) Check() error {
	if t == nil {
		return errors.New("missing two-tower network")
	}
	if err := t.ProjA.Check(); err != nil {
		return fmt.Errorf("light tower: %w", err)
	}
	if err := t.ProjB.Check(); err != nil {
		return fmt.Errorf("content tower: %w", err)
	}
	if err := t.Trunk.Check(); err != nil {
		return fmt.Errorf("trunk: %w", err)
	}
	if in, n := t.Trunk.Layers[0].In, t.ProjA.Out+t.ProjB.Out; in != n {
		return fmt.Errorf("trunk takes %d inputs from %d projected", in, n)
	}
	return nil
}

// Freeze freezes both towers and the trunk for Infer (Dense.Freeze).
func (t *TwoTower) Freeze() {
	t.ProjA.Freeze()
	t.ProjB.Freeze()
	t.Trunk.Freeze()
}

// Backward propagates the output gradient and accumulates parameter
// gradients in both towers and the trunk.
func (t *TwoTower) Backward(gout []float64) {
	gconcat := t.Trunk.Backward(gout)
	na := t.ProjA.Out
	t.ProjA.Backward(gconcat[:na])
	t.ProjB.Backward(gconcat[na:])
}

// Step applies the optimizer update everywhere.
func (t *TwoTower) Step(lr, momentum, l2 float64, batch int) {
	t.ProjA.Step(lr, momentum, l2, batch)
	t.ProjB.Step(lr, momentum, l2, batch)
	t.Trunk.Step(lr, momentum, l2, batch)
}

// ParamCount returns the total number of trainable parameters.
func (t *TwoTower) ParamCount() int {
	return t.ProjA.ParamCount() + t.ProjB.ParamCount() + t.Trunk.ParamCount()
}
