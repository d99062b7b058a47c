package core

import (
	"bytes"
	"testing"

	"litereconfig/internal/contend"
	"litereconfig/internal/fault"
	"litereconfig/internal/harness"
	"litereconfig/internal/mbek"
	"litereconfig/internal/obs"
	"litereconfig/internal/simlat"
)

func TestBreakerTransitions(t *testing.T) {
	b := newBreaker(3, 4, 7)
	if !b.allowHeavy() {
		t.Fatal("fresh breaker should be closed")
	}
	b.recordBad()
	b.recordBad()
	b.recordGood() // resets the consecutive count
	b.recordBad()
	b.recordBad()
	if b.state != breakerClosed {
		t.Fatal("two consecutive bads should not trip k=3")
	}
	b.recordBad()
	if b.state != breakerOpen || b.allowHeavy() {
		t.Fatal("three consecutive bads should open the breaker")
	}
	if b.opens != 1 {
		t.Fatalf("opens = %d", b.opens)
	}
	// Cooldown: waiting is in [cooldown, 2*cooldown); tick it down.
	if b.waiting < 4 || b.waiting >= 8 {
		t.Fatalf("cooldown out of range: %d", b.waiting)
	}
	for i := 0; i < 8 && b.state == breakerOpen; i++ {
		b.tick()
	}
	if b.state != breakerHalfOpen {
		t.Fatal("cooldown should end in half-open")
	}
	if !b.allowHeavy() {
		t.Fatal("half-open must allow the probe")
	}
	// Failed probe re-opens immediately.
	b.recordBad()
	if b.state != breakerOpen || b.opens != 2 {
		t.Fatalf("failed probe should re-open: state=%v opens=%d", b.state, b.opens)
	}
	for i := 0; i < 8 && b.state == breakerOpen; i++ {
		b.tick()
	}
	// Successful probe closes.
	b.recordGood()
	if b.state != breakerClosed {
		t.Fatal("good probe should close the breaker")
	}
}

func TestNilBreakerIsInert(t *testing.T) {
	var b *breaker
	if !b.allowHeavy() {
		t.Fatal("nil breaker must allow heavy features")
	}
	b.tick()
	b.recordBad()
	b.recordGood()
}

func TestWatchdogLadder(t *testing.T) {
	s := setup(t)
	schd, err := New(Options{Models: s.Models, SLO: 50, Policy: PolicyFull,
		Degrade: DegradeOn})
	if err != nil {
		t.Fatal(err)
	}
	// Over-budget GoFs walk down the ladder, capped at the floor.
	for i := 0; i < 5; i++ {
		schd.ObserveGoF(8, 80)
	}
	if schd.DegradeLevel() != maxDegradeLevel {
		t.Fatalf("degrade level = %d, want cap %d", schd.DegradeLevel(), maxDegradeLevel)
	}
	if schd.Overruns() != 5 {
		t.Fatalf("overruns = %d", schd.Overruns())
	}
	// Clean GoFs climb back up.
	schd.ObserveGoF(8, 20)
	if schd.DegradeLevel() != maxDegradeLevel-1 {
		t.Fatalf("clean GoF did not recover a rung: %d", schd.DegradeLevel())
	}
	schd.ObserveGoF(8, 20)
	schd.ObserveGoF(8, 20)
	if schd.DegradeLevel() != 0 {
		t.Fatalf("ladder did not recover to 0: %d", schd.DegradeLevel())
	}
}

func TestWatchdogInertWithoutInjectorUnderAuto(t *testing.T) {
	s := setup(t)
	schd, err := New(Options{Models: s.Models, SLO: 50, Policy: PolicyFull})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		schd.ObserveGoF(8, 500)
	}
	if schd.DegradeLevel() != 0 || schd.Overruns() != 0 {
		t.Fatal("DegradeAuto without an injector must be inert")
	}
}

func TestDegradedDecisionSkipsHeavyFeatures(t *testing.T) {
	s := setup(t)
	// A loose SLO would normally select content features; at degrade
	// level > 0 the full policy must go light-only and pick the cheapest
	// feasible branch.
	opts := Options{Models: s.Models, SLO: 100, Policy: PolicyFull, Degrade: DegradeOn}
	schd, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	schd.ObserveGoF(8, 500) // one overrun: level 1
	v := s.Corpus.Val[0]
	clock := simlat.NewClock(simlat.TX2, 3)
	k := mbek.NewKernel(schd.models.Det, clock)
	k.Start(v)
	b := schd.Decide(k, clock, v, v.Frames[0])
	if len(schd.FeatureUse()) != 0 {
		t.Fatalf("degraded decision extracted heavy features: %v", schd.FeatureUse())
	}
	// Compare against the undegraded decision at the same SLO: the
	// degraded branch must not be more expensive.
	schd2, _ := New(Options{Models: s.Models, SLO: 100, Policy: PolicyFull})
	clock2 := simlat.NewClock(simlat.TX2, 3)
	k2 := mbek.NewKernel(schd2.models.Det, clock2)
	k2.Start(v)
	b2 := schd2.Decide(k2, clock2, v, v.Frames[0])
	cost := func(b0 mbek.Branch) float64 {
		return s.Models.Det.CostMS(b0.DetConfig())
	}
	if cost(b)/float64(b.GoF) > cost(b2)/float64(b2.GoF) {
		t.Fatalf("degraded branch %v dearer than normal %v", b, b2)
	}
}

func TestExtractionFailuresOpenBreaker(t *testing.T) {
	s := setup(t)
	// Every heavy extraction fails; a loose SLO makes the full policy
	// keep trying until the breaker disconnects the heavy path.
	p, err := NewPipeline(Options{Models: s.Models, SLO: 100, Policy: PolicyFull,
		Faults: &fault.Config{Seed: 5, ExtractFailRate: 1}})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	p.SetObserver(o.StreamObserver(0, "chaos"))
	r := harness.Evaluate(p, s.Corpus.Val, simlat.TX2, 100, contend.Fixed{}, 42)
	if r.Latency.Count() == 0 {
		t.Fatal("no latency samples")
	}
	if p.Sched.BreakerOpens() == 0 {
		t.Fatal("total extraction failure never opened the breaker")
	}
	snap := o.Snapshot()
	if snap.Counters["sched_extract_failures_total"] == 0 {
		t.Fatal("extraction failures not counted")
	}
	if snap.Counters["sched_breaker_opens_total"] == 0 {
		t.Fatal("breaker opens not counted")
	}
	// The trace must carry the failures and the open-breaker state.
	sawFail, sawOpen := false, false
	for _, d := range o.Decisions() {
		if len(d.FailedFeatures) > 0 {
			sawFail = true
		}
		if d.Breaker == "open" {
			sawOpen = true
		}
	}
	if !sawFail || !sawOpen {
		t.Fatalf("trace missing failure evidence: fail=%v open=%v", sawFail, sawOpen)
	}
}

func TestSpikesTriggerWatchdogAndStayBounded(t *testing.T) {
	s := setup(t)
	cfg := &fault.Config{Seed: 9, SpikeRate: 0.3, SpikeMS: 120}
	run := func(mode DegradeMode) *harness.Result {
		p, err := NewPipeline(Options{Models: s.Models, SLO: 50,
			Policy: PolicyFull, Faults: cfg, Degrade: mode})
		if err != nil {
			t.Fatal(err)
		}
		return harness.Evaluate(p, s.Corpus.Val, simlat.TX2, 50, contend.Fixed{}, 42)
	}
	r := run(DegradeAuto)
	off := run(DegradeOff)
	vr, vrOff := r.Latency.ViolationRate(50), off.Latency.ViolationRate(50)
	t.Logf("spike chaos: violations with degradation %.3f, without %.3f", vr, vrOff)
	if vr > 0.5 {
		t.Fatalf("SLO-miss rate unbounded under spikes: %.3f", vr)
	}
	if vr > vrOff+0.02 {
		t.Fatalf("degradation made violations worse: %.3f vs %.3f", vr, vrOff)
	}
}

func TestFaultedRunDeterministic(t *testing.T) {
	s := setup(t)
	cfg := &fault.Config{Seed: 11, SpikeRate: 0.1, ExtractFailRate: 0.2,
		BurstRate: 0.05, StallRate: 0.02}
	trace := func() []byte {
		p, err := NewPipeline(Options{Models: s.Models, SLO: 50,
			Policy: PolicyFull, Faults: cfg})
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		p.SetObserver(o.StreamObserver(0, "chaos"))
		harness.Evaluate(p, s.Corpus.Val, simlat.TX2, 50, contend.Fixed{}, 42)
		var buf bytes.Buffer
		if err := o.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := trace(), trace()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed faulted runs produced different traces")
	}
}

func TestUnfaultedTraceUnchangedByFaultMachinery(t *testing.T) {
	s := setup(t)
	// A nil Faults config and a zero-rate config must both take exactly
	// the decisions (and clock draws) of the pre-fault pipeline.
	trace := func(cfg *fault.Config) []byte {
		p, err := NewPipeline(Options{Models: s.Models, SLO: 50,
			Policy: PolicyFull, Faults: cfg})
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		p.SetObserver(o.StreamObserver(0, "s"))
		harness.Evaluate(p, s.Corpus.Val, simlat.TX2, 50, contend.Fixed{}, 42)
		var buf bytes.Buffer
		if err := o.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(trace(nil), trace(&fault.Config{Seed: 3})) {
		t.Fatal("zero-rate fault config changed the decision trace")
	}
}
