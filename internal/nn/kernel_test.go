package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// plainDense is the row-by-row reference for Dense's kernels: one output
// row at a time, each sum in ascending input order.
type plainDense struct {
	in, out                      int
	relu                         bool
	w, b, gw, gb, vw, vb, preact []float64
	x                            []float64
}

func newPlain(d *Dense) *plainDense {
	c := func(s []float64) []float64 { return append([]float64(nil), s...) }
	return &plainDense{in: d.In, out: d.Out, relu: d.ReLU, w: c(d.W), b: c(d.B),
		gw: make([]float64, len(d.W)), gb: make([]float64, d.Out),
		vw: make([]float64, len(d.W)), vb: make([]float64, d.Out),
		preact: make([]float64, d.Out)}
}

func (p *plainDense) forward(x []float64) []float64 {
	p.x = x
	out := make([]float64, p.out)
	for o := 0; o < p.out; o++ {
		sum := p.b[o]
		for i, xi := range x {
			sum += p.w[o*p.in+i] * xi
		}
		p.preact[o] = sum
		if p.relu && sum < 0 {
			sum = 0
		}
		out[o] = sum
	}
	return out
}

func (p *plainDense) backward(gout []float64) []float64 {
	gx := make([]float64, p.in)
	for o := 0; o < p.out; o++ {
		if p.relu && p.preact[o] <= 0 {
			continue
		}
		g := gout[o]
		p.gb[o] += g
		for i, xi := range p.x {
			p.gw[o*p.in+i] += g * xi
			gx[i] += g * p.w[o*p.in+i]
		}
	}
	return gx
}

func (p *plainDense) step(lr, momentum, l2 float64, batch int) {
	inv := 1.0 / float64(batch)
	for i := range p.w {
		g := p.gw[i]*inv + l2*p.w[i]
		p.vw[i] = momentum*p.vw[i] - lr*g
		p.w[i] += p.vw[i]
		p.gw[i] = 0
	}
	for i := range p.b {
		g := p.gb[i] * inv
		p.vb[i] = momentum*p.vb[i] - lr*g
		p.b[i] += p.vb[i]
		p.gb[i] = 0
	}
}

// forceZeroRow makes row o's pre-activation exactly +0 (neg false) or
// exactly -0 (neg true) for input x: bias ±0 and weights whose products
// with x are all ±0 of the same sign.
func forceZeroRow(w, b []float64, in, o int, x []float64, neg bool) {
	sign := 1.0
	if neg {
		sign = -1
	}
	b[o] = math.Copysign(0, sign)
	for i, xi := range x {
		w[o*in+i] = math.Copysign(0, sign*xi)
	}
}

// zeroInputs sets about a quarter of x to +0 or −0, as a ReLU layer's
// clamped outputs are, so a kernel that skipped zero inputs fails.
func zeroInputs(rng *rand.Rand, x []float64) {
	for i := range x {
		if rng.Intn(4) == 0 {
			x[i] = math.Copysign(0, float64(1-2*rng.Intn(2)))
		}
	}
}

// flipToPlusZero makes row o's plain-loop sum end at +0 where skipping
// zero inputs would leave it at −0: bias −0, every product −0 but the
// one at the zero input z (x[z] = +0), whose weight 1 gives +0.
func flipToPlusZero(w, b []float64, in, o, z int, x []float64) {
	b[o] = math.Copysign(0, -1)
	for i, xi := range x {
		w[o*in+i] = math.Copysign(0, -xi)
	}
	w[o*in+z] = 1
}

// TestDenseKernelsMatchPlainLoop checks Forward, Infer, Backward and
// Step against the row-by-row loops bit for bit, over shapes below,
// at and above the four-row interleave and over pre-activations of
// exactly +0 and -0, which ReLU keeps and Backward skips. The layer is
// refrozen after every write to its weights. Inputs hold ±0 entries;
// every other sample a −0-bias row turns +0 only through a zero input,
// so a layer that skipped zero inputs there would give −0. After the
// training rounds, an infinite weight at a zero input (0·Inf is NaN)
// and a layer gated to scale 0 (B of both zero signs) must also match.
func TestDenseKernelsMatchPlainLoop(t *testing.T) {
	type shape struct{ in, out int }
	var shapes []shape
	for _, in := range []int{1, 3, 5} {
		for _, out := range []int{1, 3, 5} {
			shapes = append(shapes, shape{in, out})
		}
	}
	// The scheduler's output layer, and one wider than an inference
	// chunk.
	shapes = append(shapes, shape{48, 300}, shape{600, 17})
	for _, sh := range shapes {
		for _, relu := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dx%d_relu=%v", sh.in, sh.out, relu), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(sh.in*1000 + sh.out)))
				d := NewDense(sh.in, sh.out, relu, rng)
				for i := range d.B {
					d.B[i] = rng.NormFloat64()
				}
				p := newPlain(d)
				dst := make([]float64, sh.out)
				call := 0
				for round := 0; round < 3; round++ {
					const batch = 4
					for smp := 0; smp < batch; smp++ {
						x := randVec(rng, sh.in)
						zeroInputs(rng, x)
						o, neg := call%sh.out, call%2 == 1
						flip := neg && sh.out > 1
						z := call % sh.in
						if flip {
							x[z] = 0
						}
						forceZeroRow(d.W, d.B, sh.in, o, x, neg)
						forceZeroRow(p.w, p.b, sh.in, o, x, neg)
						if flip {
							o2 := (o + 1) % sh.out
							flipToPlusZero(d.W, d.B, sh.in, o2, z, x)
							flipToPlusZero(p.w, p.b, sh.in, o2, z, x)
						}
						d.Freeze()
						call++

						want := p.forward(x)
						if flip {
							if z := want[(o+1)%sh.out]; z != 0 || math.Signbit(z) {
								t.Fatalf("flipped row ends at %v, want +0", z)
							}
						}
						sameBits(t, "Infer", d.Infer(dst, x), want)
						sameBits(t, "Forward", d.Forward(x), want)
						sameBits(t, "preact", d.preact, p.preact)
						if z := d.preact[o]; z != 0 || math.Signbit(z) != neg {
							t.Fatalf("row %d pre-activation %v, want signed zero (neg %v)", o, z, neg)
						}

						gout := randVec(rng, sh.out)
						gout[(o+1)%sh.out] = math.Copysign(0, -1)
						sameBits(t, "gx", d.Backward(gout), p.backward(gout))
						sameBits(t, "gw", d.gw, p.gw)
						sameBits(t, "gb", d.gb, p.gb)
					}
					d.Step(0.05, 0.9, 1e-3, batch)
					p.step(0.05, 0.9, 1e-3, batch)
					sameBits(t, "W", d.W, p.w)
					sameBits(t, "B", d.B, p.b)
					sameBits(t, "vw", d.vw, p.vw)
					sameBits(t, "vb", d.vb, p.vb)
				}

				// An infinite weight at a zero input: 0·Inf is NaN.
				x := randVec(rng, sh.in)
				zeroInputs(rng, x)
				z := call % sh.in
				x[z] = 0
				d.W[(call%sh.out)*sh.in+z] = math.Inf(1)
				d.Freeze()
				sameBits(t, "Infer (Inf weight)", d.Infer(dst, x), newPlain(d).forward(x))

				// The sign pattern of a tower gated to scale 0.
				for i := range d.W {
					d.W[i] = randVec(rng, 1)[0] * 0
				}
				for i := range d.B {
					d.B[i] = rng.NormFloat64() * 0
				}
				d.Freeze()
				for trial := 0; trial < 4; trial++ {
					x := randVec(rng, sh.in)
					zeroInputs(rng, x)
					sameBits(t, "Infer (scale 0)", d.Infer(dst, x), newPlain(d).forward(x))
				}
			})
		}
	}
}
