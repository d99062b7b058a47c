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
	"errors"
	"fmt"
	"math"
	"math/rand"

	"litereconfig/internal/vec"
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

	// Inference state, written only by Freeze and dropped by Step. wt is
	// W input-major: wt[i][o] = W[o][i], so one vector lane holds one
	// output while the inputs stream past.
	wt [][]float64
}

// inferChunk is how many inputs Infer hands the kernel at a time. The
// paper's widest layer (the 2×256 concatenation) is one chunk.
const inferChunk = 512

// ascending lists 0, 1, …, inferChunk−1: a chunk's row indices.
var ascending = func() (a [inferChunk]int32) {
	for i := range a {
		a[i] = int32(i)
	}
	return a
}()

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
	d.affine(d.preact, x)
	for o, sum := range d.preact {
		if d.ReLU && sum < 0 {
			sum = 0
		}
		d.out[o] = sum
	}
	return d.out
}

// Check reports an error when the layer is missing or its shape is
// inconsistent: a size below 1, or W and B not In·Out and Out long. A
// layer decoded from a file is checked before it is frozen, so a
// malformed file is an error rather than a panic.
func (d *Dense) Check() error {
	switch {
	case d == nil:
		return errors.New("missing layer")
	case d.In <= 0 || d.Out <= 0:
		return fmt.Errorf("layer shape %dx%d", d.In, d.Out)
	case len(d.W) != d.In*d.Out:
		return fmt.Errorf("%dx%d layer has %d weights", d.In, d.Out, len(d.W))
	case len(d.B) != d.Out:
		return fmt.Errorf("%dx%d layer has %d biases", d.In, d.Out, len(d.B))
	}
	return nil
}

// Freeze records the input-major copy of W that Infer reads. Call it
// after the last write to W or B and before Infer; Step drops the copy,
// so a layer trained since its last Freeze panics in Infer instead of
// reading stale weights. Freeze writes the layer, so call it before the
// layer is shared. The layer must pass Check.
func (d *Dense) Freeze() {
	flat := make([]float64, d.In*d.Out)
	wt := make([][]float64, d.In)
	for i := range wt {
		row := flat[i*d.Out : (i+1)*d.Out : (i+1)*d.Out]
		for o := range row {
			row[o] = d.W[o*d.In+i]
		}
		wt[i] = row
	}
	d.wt = wt
}

// Infer writes the layer output for input x into dst, which must have
// length Out and must not alias x, and returns dst. Each output gets
// exactly Forward's arithmetic in the same order: it starts at B[o] and
// adds W[o][i]·x[i] in ascending i, zero inputs included (w·0 is NaN
// for an infinite w, and −0 + +0 is +0). The sums run on vec's kernel,
// one output per lane, over the frozen input-major weights. Infer
// writes nothing to the layer, so any number of goroutines may run it
// on one shared frozen layer.
func (d *Dense) Infer(dst, x []float64) []float64 {
	if len(x) != d.In || len(dst) != d.Out {
		panic(fmt.Sprintf("nn: dense infer got %d inputs into %d outputs, want %dx%d",
			len(x), len(dst), d.In, d.Out))
	}
	if d.wt == nil {
		panic("nn: Infer on a layer not frozen since its weights last changed")
	}
	copy(dst, d.B)
	// Chunks of inputs add into dst in ascending order, so each output
	// still takes its additions in ascending i.
	for lo := 0; lo < d.In; lo += inferChunk {
		hi := min(lo+inferChunk, d.In)
		vec.AccumulateRows(dst, x[lo:hi], d.wt[lo:hi], ascending[:hi-lo])
	}
	if d.ReLU {
		for o, sum := range dst {
			if sum < 0 {
				dst[o] = 0
			}
		}
	}
	return dst
}

// affine writes W·x + B into dst for Forward. Output o's sum starts at
// B[o] and adds W[o][i]·x[i] in ascending i, as a plain loop does. Four
// rows share each pass over x: their four chains are independent, so
// interleaving them lets the additions overlap without reordering any
// of them.
func (d *Dense) affine(dst, x []float64) {
	in := len(x)
	o := 0
	for ; o+4 <= d.Out; o += 4 {
		r0 := d.W[o*in:][:in]
		r1 := d.W[(o+1)*in:][:in]
		r2 := d.W[(o+2)*in:][:in]
		r3 := d.W[(o+3)*in:][:in]
		s0, s1, s2, s3 := d.B[o], d.B[o+1], d.B[o+2], d.B[o+3]
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < d.Out; o++ {
		row := d.W[o*in:][:in]
		sum := d.B[o]
		for i, xi := range x {
			sum += row[i] * xi
		}
		dst[o] = sum
	}
}

// Backward takes the gradient of the loss w.r.t. the layer output,
// accumulates parameter gradients, and returns the gradient w.r.t. the
// layer input. Must follow a Forward call.
//
// Rows whose ReLU was inactive (pre-activation <= 0) contribute nothing.
// The active rows fold into gx four per pass, in ascending row order, so
// every gx[i] takes its additions in the order a row-by-row loop would.
func (d *Dense) Backward(gout []float64) []float64 {
	if len(gout) != d.Out {
		panic(fmt.Sprintf("nn: dense backward got %d grads, want %d", len(gout), d.Out))
	}
	clear(d.gx)
	var act [4]int
	n := 0
	for o := 0; o < d.Out; o++ {
		if d.ReLU && d.preact[o] <= 0 {
			continue
		}
		act[n] = o
		n++
		if n == len(act) {
			d.backward4(gout, act)
			n = 0
		}
	}
	for _, o := range act[:n] {
		d.backward1(gout[o], o)
	}
	return d.gx
}

// backward4 accumulates the gradients of the four active rows in act,
// which ascend.
func (d *Dense) backward4(gout []float64, act [4]int) {
	in := d.In
	x, gx := d.x[:in], d.gx[:in]
	o0, o1, o2, o3 := act[0], act[1], act[2], act[3]
	g0, g1, g2, g3 := gout[o0], gout[o1], gout[o2], gout[o3]
	d.gb[o0] += g0
	d.gb[o1] += g1
	d.gb[o2] += g2
	d.gb[o3] += g3
	r0, w0 := d.W[o0*in:][:in], d.gw[o0*in:][:in]
	r1, w1 := d.W[o1*in:][:in], d.gw[o1*in:][:in]
	r2, w2 := d.W[o2*in:][:in], d.gw[o2*in:][:in]
	r3, w3 := d.W[o3*in:][:in], d.gw[o3*in:][:in]
	for i, xi := range x {
		w0[i] += g0 * xi
		w1[i] += g1 * xi
		w2[i] += g2 * xi
		w3[i] += g3 * xi
		s := gx[i]
		s += g0 * r0[i]
		s += g1 * r1[i]
		s += g2 * r2[i]
		s += g3 * r3[i]
		gx[i] = s
	}
}

// backward1 accumulates the gradients of active row o.
func (d *Dense) backward1(g float64, o int) {
	in := d.In
	x, gx := d.x[:in], d.gx[:in]
	d.gb[o] += g
	row, grow := d.W[o*in:][:in], d.gw[o*in:][:in]
	for i, xi := range x {
		grow[i] += g * xi
		gx[i] += g * row[i]
	}
}

// Step applies one SGD-with-momentum update using the gradients
// accumulated over batch samples, with L2 weight decay, then clears the
// accumulated gradients. It drops the frozen inference copy.
func (d *Dense) Step(lr, momentum, l2 float64, batch int) {
	d.wt = nil
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
