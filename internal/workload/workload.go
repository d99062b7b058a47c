// Package workload is the open-world traffic engine: a seeded,
// deterministic generator of open-loop stream arrivals for the fleet
// dispatcher. Arrivals are drawn from composable rate processes
// (constant-rate Poisson, diurnal curves, flash-crowd bursts) by
// thinning a homogeneous Poisson stream at the summed peak rate; each
// arrival is stamped with a tenant and an SLO tier and carries a
// heavy-tailed session length (bounded Pareto), so a fixed seed always
// yields the same arrival sequence, the same videos and the same
// stream configs — the workload-side half of the repository's
// byte-identical-trace invariant.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"litereconfig/internal/fastrand"
	"litereconfig/internal/serve"
	"litereconfig/internal/vid"
)

// Tier is one tenant service class: the SLO its streams are served
// under, the weighted-fair-queueing weight that ranks it against other
// tiers, and its share of generated arrivals.
type Tier struct {
	// Name is the SLO class label carried on stream configs, report
	// rows and trace events (e.g. "gold").
	Name string
	// SLOMS is the tier's per-frame latency objective in simulated ms.
	SLOMS float64
	// Weight is the tier's WFQ weight: admission share under backlog,
	// and preemption rank (higher evicts lower).
	Weight int
	// Share is the fraction of arrivals stamped with this tier; the
	// shares of a tier set are normalized at generation time.
	Share float64
}

// DefaultTiers is the three-tier gold/silver/best-effort split used by
// the named scenarios: a latency-critical gold minority, a silver
// middle and a best-effort majority.
func DefaultTiers() []Tier {
	return []Tier{
		{Name: "gold", SLOMS: 33.3, Weight: 4, Share: 0.2},
		{Name: "silver", SLOMS: 50, Weight: 2, Share: 0.3},
		{Name: "besteffort", SLOMS: 100, Weight: 1, Share: 0.5},
	}
}

// Weights returns the serve/fleet ClassWeights map for a tier set.
func Weights(tiers []Tier) map[string]int {
	w := make(map[string]int, len(tiers))
	for _, t := range tiers {
		w[t.Name] = t.Weight
	}
	return w
}

// Process is one time-varying component of the arrival rate. The
// generator sums all configured processes and draws arrivals by
// thinning at the summed peak, so components compose additively.
type Process interface {
	// Rate returns the component's arrival rate, in streams per
	// simulated second, at simulated time tMS.
	Rate(tMS float64) float64
	// Peak returns an upper bound on Rate over any horizon; thinning
	// needs it to bound the proposal rate.
	Peak() float64
}

// Constant is a homogeneous Poisson component: PerSec arrivals per
// simulated second, flat over the horizon.
type Constant struct{ PerSec float64 }

// Rate implements Process.
func (c Constant) Rate(float64) float64 { return c.PerSec }

// Peak implements Process.
func (c Constant) Peak() float64 { return c.PerSec }

// Diurnal is a sinusoidal rate curve — the day/night load cycle scaled
// down to simulated time: Base arrivals/s plus an Amplitude swing over
// PeriodMS, starting at the trough.
type Diurnal struct {
	Base, Amplitude float64
	PeriodMS        float64
}

// Rate implements Process.
func (d Diurnal) Rate(tMS float64) float64 {
	if d.PeriodMS <= 0 {
		return d.Base
	}
	phase := 2 * math.Pi * tMS / d.PeriodMS
	return d.Base + d.Amplitude*(1-math.Cos(phase))/2
}

// Peak implements Process.
func (d Diurnal) Peak() float64 { return d.Base + d.Amplitude }

// Flash is a flash-crowd burst: PerSec extra arrivals per second during
// [AtMS, AtMS+DurationMS), zero outside.
type Flash struct {
	AtMS, DurationMS float64
	PerSec           float64
}

// Rate implements Process.
func (f Flash) Rate(tMS float64) float64 {
	if tMS >= f.AtMS && tMS < f.AtMS+f.DurationMS {
		return f.PerSec
	}
	return 0
}

// Peak implements Process.
func (f Flash) Peak() float64 { return f.PerSec }

// Config describes one workload to generate.
type Config struct {
	// Seed fixes the whole arrival realization: times, tiers, tenants,
	// session lengths and video content.
	Seed int64
	// HorizonMS is the generation window in simulated milliseconds;
	// arrivals land in [0, HorizonMS).
	HorizonMS float64
	// Tiers is the tier set arrivals are stamped from (shares are
	// normalized). Default DefaultTiers().
	Tiers []Tier
	// Processes are the additive rate components. At least one is
	// required.
	Processes []Process
	// Tenants is how many distinct tenants arrivals are spread over
	// (uniformly). Default 4.
	Tenants int
	// MinFrames/MaxFrames bound the per-stream session length in
	// frames; lengths are bounded-Pareto between them. Defaults 30/120.
	MinFrames, MaxFrames int
	// TailAlpha is the bounded-Pareto shape for session lengths: the
	// smaller, the heavier the tail (more mass near MaxFrames). Default
	// 1.5; values >= ~3 are effectively light-tailed.
	TailAlpha float64
}

func (c Config) withDefaults() Config {
	if len(c.Tiers) == 0 {
		c.Tiers = DefaultTiers()
	}
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.MinFrames <= 0 {
		c.MinFrames = 30
	}
	if c.MaxFrames < c.MinFrames {
		c.MaxFrames = 4 * c.MinFrames
	}
	if c.TailAlpha <= 0 {
		c.TailAlpha = 1.5
	}
	return c
}

// Arrival is one generated stream arrival.
type Arrival struct {
	// Index is the arrival's position in the schedule (time order).
	Index int
	// AtMS is the arrival time on the fleet's virtual clock.
	AtMS float64
	// Tier and Tenant stamp the arrival's service class and owner.
	Tier   Tier
	Tenant string
	// Frames is the session length; Seed the stream's private seed
	// (video content and stochastic realization).
	Frames int
	Seed   int64
}

// StreamConfig materializes the arrival into a servable stream config,
// generating its video deterministically from the arrival's seed.
func (a Arrival) StreamConfig() serve.StreamConfig {
	name := fmt.Sprintf("%s-%s-a%d", a.Tier.Name, a.Tenant, a.Index)
	return serve.StreamConfig{
		Name:   name,
		Video:  vid.Generate(name, a.Seed, vid.GenConfig{Frames: a.Frames}),
		SLO:    a.Tier.SLOMS,
		Class:  a.Tier.Name,
		Tenant: a.Tenant,
		Seed:   a.Seed,
	}
}

// Generate draws the full arrival schedule for a config. The same
// config always yields the same schedule.
func Generate(cfg Config) (*Schedule, error) {
	cfg = cfg.withDefaults()
	if cfg.HorizonMS <= 0 {
		return nil, fmt.Errorf("workload: positive HorizonMS required")
	}
	if len(cfg.Processes) == 0 {
		return nil, fmt.Errorf("workload: at least one rate process required")
	}
	peak := 0.0
	for _, p := range cfg.Processes {
		peak += p.Peak()
	}
	if peak <= 0 {
		return nil, fmt.Errorf("workload: summed peak rate must be positive")
	}
	shareSum := 0.0
	for _, t := range cfg.Tiers {
		if t.Share < 0 {
			return nil, fmt.Errorf("workload: tier %q has negative share", t.Name)
		}
		shareSum += t.Share
	}
	if shareSum <= 0 {
		return nil, fmt.Errorf("workload: tier shares sum to zero")
	}

	rng := rand.New(fastrand.New(cfg.Seed))
	rate := func(tMS float64) float64 {
		r := 0.0
		for _, p := range cfg.Processes {
			r += p.Rate(tMS)
		}
		return r
	}

	sched := &Schedule{cfg: cfg}
	// Non-homogeneous Poisson by thinning: propose at the summed peak
	// rate, accept each proposal with probability rate(t)/peak. One rng
	// drives everything in a fixed draw order, so the realization is a
	// pure function of the seed.
	t := 0.0
	for {
		t += rng.ExpFloat64() / peak * 1000 // peak is per second, t in ms
		if t >= cfg.HorizonMS {
			break
		}
		if rng.Float64()*peak > rate(t) {
			continue
		}
		u := rng.Float64() * shareSum
		tier := cfg.Tiers[len(cfg.Tiers)-1]
		acc := 0.0
		for _, tr := range cfg.Tiers {
			acc += tr.Share
			if u < acc {
				tier = tr
				break
			}
		}
		idx := len(sched.Arrivals)
		sched.Arrivals = append(sched.Arrivals, Arrival{
			Index:  idx,
			AtMS:   t,
			Tier:   tier,
			Tenant: fmt.Sprintf("t%d", rng.Intn(cfg.Tenants)),
			Frames: boundedPareto(rng, cfg.MinFrames, cfg.MaxFrames, cfg.TailAlpha),
			// Distinct, seed-derived stream seeds: a large odd stride keeps
			// sibling streams decorrelated without colliding for any idx.
			Seed: cfg.Seed + int64(idx)*1_000_003 + 1,
		})
	}
	return sched, nil
}

// boundedPareto draws a session length in [min, max] from a bounded
// Pareto distribution with shape alpha (inverse-CDF sampling).
func boundedPareto(rng *rand.Rand, min, max int, alpha float64) int {
	if max <= min {
		return min
	}
	l, h := float64(min), float64(max)
	u := rng.Float64()
	lh := math.Pow(l/h, alpha)
	x := l / math.Pow(1-u*(1-lh), 1/alpha)
	n := int(x)
	if n < min {
		n = min
	}
	if n > max {
		n = max
	}
	return n
}

// Schedule is a generated arrival sequence, consumable as a
// fleet.Source: Take hands out the configs of arrivals due at the
// polled virtual time, materializing each video on demand.
type Schedule struct {
	cfg      Config
	Arrivals []Arrival
	next     int
}

// Config returns the (defaulted) config the schedule was drawn from.
func (s *Schedule) Config() Config { return s.cfg }

// Take returns the stream configs of all arrivals due at or before
// nowMS, in arrival order, consuming them.
func (s *Schedule) Take(nowMS float64) []serve.StreamConfig {
	var out []serve.StreamConfig
	for s.next < len(s.Arrivals) && s.Arrivals[s.next].AtMS <= nowMS {
		out = append(out, s.Arrivals[s.next].StreamConfig())
		s.next++
	}
	return out
}

// Exhausted reports that every arrival has been taken.
func (s *Schedule) Exhausted() bool { return s.next >= len(s.Arrivals) }

// Reset rewinds the schedule so it can drive another run.
func (s *Schedule) Reset() { s.next = 0 }

// ByTier counts the schedule's arrivals per tier name.
func (s *Schedule) ByTier() map[string]int {
	out := map[string]int{}
	for _, a := range s.Arrivals {
		out[a.Tier.Name]++
	}
	return out
}
