package simlat

import (
	"math"
	"math/rand"

	"litereconfig/internal/fastrand"
	"litereconfig/internal/metric"
)

// ContentionMultiplier returns the latency multiplier a GPU-class op
// suffers at contention level g in [0, 1). It is calibrated so that 50%
// contention slows GPU work by about 1.6x, matching the paper's observed
// pipeline slowdown of roughly 1.4x once CPU-side work is accounted for.
func ContentionMultiplier(g float64) float64 {
	if g <= 0 {
		return 1
	}
	if g > 0.99 {
		g = 0.99
	}
	return 1 + 1.2*g
}

// ContentionForMultiplier inverts ContentionMultiplier: the highest
// contention level at which a GPU-class op still fits within the given
// latency multiplier. Results are clamped to the model's [0, 0.99]
// domain, so a multiplier below 1 yields 0 and a very large one 0.99.
func ContentionForMultiplier(m float64) float64 {
	g := (m - 1) / 1.2
	if g < 0 {
		return 0
	}
	if g > 0.99 {
		return 0.99
	}
	return g
}

// Clock is the virtual latency clock. It is not safe for concurrent use;
// each simulated pipeline owns one clock.
type Clock struct {
	dev        Device
	contention float64
	now        float64 // simulated ms since start
	gpuBusy    float64 // simulated ms charged to GPU-class ops
	rng        *rand.Rand
	breakdown  *metric.Breakdown
	// jitterSigma is the lognormal sigma applied to each charge; the
	// contention level adds variance on top (contended GPUs are noisy).
	jitterSigma float64
}

// NewClock returns a clock for the device, with deterministic jitter
// derived from the seed.
func NewClock(dev Device, seed int64) *Clock {
	return &Clock{
		dev:         dev,
		rng:         rand.New(fastrand.New(seed)),
		breakdown:   metric.NewBreakdown(),
		jitterSigma: 0.05,
	}
}

// Device returns the board profile the clock simulates.
func (c *Clock) Device() Device { return c.dev }

// SetDevice rebinds the clock to a new board profile: subsequent charges
// use the new device's speed factors while accumulated time, jitter
// state and breakdowns carry over. The fleet dispatcher uses it when a
// live stream migrates between heterogeneous boards.
func (c *Clock) SetDevice(dev Device) { c.dev = dev }

// SetContention sets the current GPU contention level in [0, 1).
func (c *Clock) SetContention(g float64) {
	if g < 0 {
		g = 0
	}
	if g > 0.99 {
		g = 0.99
	}
	c.contention = g
}

// Contention returns the current GPU contention level.
func (c *Clock) Contention() float64 { return c.contention }

// Now returns the simulated time in milliseconds.
func (c *Clock) Now() float64 { return c.now }

// GPUBusyMS returns the cumulative simulated milliseconds charged to
// GPU-class operations. The ratio of GPUBusyMS deltas to Now deltas is
// the stream's GPU occupancy over a window — the quantity the serving
// engine couples across co-located streams.
func (c *Clock) GPUBusyMS() float64 { return c.gpuBusy }

// Rand exposes the clock's deterministic RNG for cost models that need
// extra randomness (e.g. rare cold-miss switch outliers).
func (c *Clock) Rand() *rand.Rand { return c.rng }

// Restore fast-forwards a fresh clock to a checkpointed position:
// simulated time and cumulative GPU-busy time are set directly, with no
// per-component breakdown attribution (the pre-crash breakdown died
// with the board) and no jitter draw. The jitter RNG restarts from the
// clock's own seed, which keeps recovery deterministic run-to-run —
// the invariant is identical traces across runs, not identical
// pre/post-crash schedules within one run.
func (c *Clock) Restore(nowMS, gpuBusyMS float64) {
	if nowMS > c.now {
		c.now = nowMS
	}
	if gpuBusyMS > c.gpuBusy {
		c.gpuBusy = gpuBusyMS
	}
}

// Breakdown returns the per-component latency accumulator.
func (c *Clock) Breakdown() *metric.Breakdown { return c.breakdown }

// Charge advances the clock by baseMS scaled by the device factor, the
// contention multiplier (GPU ops only) and lognormal jitter, attributing
// the time to the named component. It returns the actual simulated cost.
func (c *Clock) Charge(component string, class OpClass, baseMS float64) float64 {
	if baseMS <= 0 {
		return 0
	}
	cost := baseMS * c.dev.Factor(class)
	if class == GPU {
		cost *= ContentionMultiplier(c.contention)
	}
	sigma := c.jitterSigma
	if class == GPU {
		sigma += 0.10 * c.contention
	}
	cost *= math.Exp(c.rng.NormFloat64()*sigma - sigma*sigma/2)
	c.now += cost
	if class == GPU {
		c.gpuBusy += cost
	}
	c.breakdown.Charge(component, cost)
	return cost
}

// ChargeExact advances the clock by exactly ms without device scaling,
// contention or jitter — used for offline-measured quantities (e.g. a
// switching cost drawn from the measured matrix) that are already in
// device milliseconds.
func (c *Clock) ChargeExact(component string, ms float64) float64 {
	if ms <= 0 {
		return 0
	}
	c.now += ms
	c.breakdown.Charge(component, ms)
	return ms
}

// Estimate returns what a charge would cost in expectation (device and
// contention applied, no jitter) without advancing the clock. Predictors
// use this to model costs.
func (c *Clock) Estimate(class OpClass, baseMS float64) float64 {
	return c.EstimateWith(class, baseMS, c.contention)
}

// EstimateWith is Estimate under an explicit contention level — used by
// schedulers that *sense* contention rather than read the simulator's
// ground truth.
func (c *Clock) EstimateWith(class OpClass, baseMS, contention float64) float64 {
	if baseMS <= 0 {
		return 0
	}
	cost := baseMS * c.dev.Factor(class)
	if class == GPU {
		cost *= ContentionMultiplier(contention)
	}
	return cost
}

// Section measures a span of simulated time.
type Section struct {
	clock *Clock
	start float64
}

// StartSection begins measuring a span.
func (c *Clock) StartSection() Section { return Section{clock: c, start: c.now} }

// Elapsed returns the simulated ms elapsed since the section started.
func (s Section) Elapsed() float64 { return s.clock.now - s.start }
