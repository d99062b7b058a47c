// Package nn is a small from-scratch neural-network library implementing
// exactly what the paper's accuracy prediction model needs (Sec. 4): dense
// layers with ReLU activations, a two-tower input projection (light-weight
// and content features projected to a common width and concatenated), MSE
// loss, SGD with momentum 0.9, and L2 regularization.
//
// It is intentionally minimal: float64 math, single-threaded, fully
// deterministic given a seed.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is one fully connected layer with an optional ReLU activation.
// Gradients accumulate across Backward calls until Step is invoked, which
// applies one SGD-with-momentum update and clears them.
type Dense struct {
	In, Out int
	ReLU    bool

	W []float64 // Out x In, row-major
	B []float64 // Out

	gw, gb []float64 // accumulated gradients
	vw, vb []float64 // momentum buffers

	x      []float64 // last input (for backward)
	preact []float64 // last pre-activation (for ReLU backward)
	out    []float64 // last output buffer
	gx     []float64 // input-gradient buffer
}

// NewDense creates a layer with He-style initialization scaled for the
// fan-in, using the provided RNG.
func NewDense(in, out int, relu bool, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid dense shape %dx%d", in, out))
	}
	d := &Dense{
		In: in, Out: out, ReLU: relu,
		W:  make([]float64, in*out),
		B:  make([]float64, out),
		gw: make([]float64, in*out),
		gb: make([]float64, out),
		vw: make([]float64, in*out),
		vb: make([]float64, out),

		preact: make([]float64, out),
		out:    make([]float64, out),
		gx:     make([]float64, in),
	}
	scale := math.Sqrt(2.0 / float64(in))
	for i := range d.W {
		d.W[i] = rng.NormFloat64() * scale
	}
	return d
}

// ensureBuffers allocates the non-persistent working buffers. Layers
// reconstructed by gob decoding carry only the exported fields, so the
// buffers are created lazily here.
func (d *Dense) ensureBuffers() {
	if d.out == nil {
		d.preact = make([]float64, d.Out)
		d.out = make([]float64, d.Out)
		d.gx = make([]float64, d.In)
		d.gw = make([]float64, d.In*d.Out)
		d.gb = make([]float64, d.Out)
		d.vw = make([]float64, d.In*d.Out)
		d.vb = make([]float64, d.Out)
	}
}

// Forward computes the layer output for input x. The returned slice is
// owned by the layer and overwritten on the next call.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: dense forward got %d inputs, want %d", len(x), d.In))
	}
	d.ensureBuffers()
	d.x = x
	for o := 0; o < d.Out; o++ {
		sum := d.B[o]
		row := d.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		d.preact[o] = sum
		if d.ReLU && sum < 0 {
			sum = 0
		}
		d.out[o] = sum
	}
	return d.out
}

// Infer writes the layer output for input x into dst, which must have
// length Out and must not alias x, and returns dst. It performs exactly
// Forward's arithmetic in the same order but writes nothing to the
// layer, so any number of goroutines may run it on one shared layer.
func (d *Dense) Infer(dst, x []float64) []float64 {
	if len(x) != d.In || len(dst) != d.Out {
		panic(fmt.Sprintf("nn: dense infer got %d inputs into %d outputs, want %dx%d",
			len(x), len(dst), d.In, d.Out))
	}
	for o := 0; o < d.Out; o++ {
		sum := d.B[o]
		row := d.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		if d.ReLU && sum < 0 {
			sum = 0
		}
		dst[o] = sum
	}
	return dst
}

// Backward takes the gradient of the loss w.r.t. the layer output,
// accumulates parameter gradients, and returns the gradient w.r.t. the
// layer input. Must follow a Forward call.
func (d *Dense) Backward(gout []float64) []float64 {
	if len(gout) != d.Out {
		panic(fmt.Sprintf("nn: dense backward got %d grads, want %d", len(gout), d.Out))
	}
	for i := range d.gx {
		d.gx[i] = 0
	}
	for o := 0; o < d.Out; o++ {
		g := gout[o]
		if d.ReLU && d.preact[o] <= 0 {
			continue
		}
		d.gb[o] += g
		row := d.W[o*d.In : (o+1)*d.In]
		grow := d.gw[o*d.In : (o+1)*d.In]
		for i, xi := range d.x {
			grow[i] += g * xi
			d.gx[i] += g * row[i]
		}
	}
	return d.gx
}

// Step applies one SGD-with-momentum update using the gradients
// accumulated over batch samples, with L2 weight decay, then clears the
// accumulated gradients.
func (d *Dense) Step(lr, momentum, l2 float64, batch int) {
	if batch <= 0 {
		batch = 1
	}
	inv := 1.0 / float64(batch)
	for i := range d.W {
		g := d.gw[i]*inv + l2*d.W[i]
		d.vw[i] = momentum*d.vw[i] - lr*g
		d.W[i] += d.vw[i]
		d.gw[i] = 0
	}
	for i := range d.B {
		g := d.gb[i] * inv // no decay on biases
		d.vb[i] = momentum*d.vb[i] - lr*g
		d.B[i] += d.vb[i]
		d.gb[i] = 0
	}
}

// ParamCount returns the number of trainable parameters.
func (d *Dense) ParamCount() int { return len(d.W) + len(d.B) }
