package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"litereconfig/internal/metric"
	"litereconfig/internal/vid"
)

// deriveClass must keep fractional SLOs apart: under the old "%.0f"
// format both 33.3 and 33.4 collapsed into "slo33ms" and their class
// stats were silently merged.
func TestDeriveClassFractionalSLOs(t *testing.T) {
	cases := map[float64]string{
		33.3: "slo33.3ms",
		33.4: "slo33.4ms",
		50:   "slo50ms",
		100:  "slo100ms",
	}
	for slo, want := range cases {
		if got := deriveClass(slo); got != want {
			t.Errorf("deriveClass(%v) = %q, want %q", slo, got, want)
		}
	}
	if deriveClass(33.3) == deriveClass(33.4) {
		t.Fatal("fractional SLOs 33.3 and 33.4 must derive distinct classes")
	}
}

// A rejected submission must carry the typed ErrQueueFull so callers
// (the fleet, load generators) can branch on backpressure, and the
// rejection must be booked per class in the report.
func TestSubmitErrQueueFullTyped(t *testing.T) {
	s := setup(t)
	srv, err := New(Options{Models: s.Models, QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for i := 0; i < 5; i++ {
		_, err := srv.Submit(StreamConfig{
			Name:  fmt.Sprintf("s%d", i),
			Video: vid.Generate("qf", int64(i+1), vid.GenConfig{Frames: 12}),
			SLO:   50, Class: "bulk",
		})
		if err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("rejection %v is not ErrQueueFull", err)
			}
			rejected++
		}
	}
	if rejected != 3 {
		t.Fatalf("rejected = %d, want 3 (queue limit 2)", rejected)
	}
	rep := srv.Drain()
	if rep.RejectedByClass["bulk"] != rejected {
		t.Fatalf("RejectedByClass[bulk] = %d, want %d",
			rep.RejectedByClass["bulk"], rejected)
	}
	// Conservation at the class level: arrivals the server saw equal
	// completions plus rejections.
	for _, cs := range rep.Classes {
		if cs.Completed+cs.Rejected != 5 {
			t.Fatalf("class %s: completed %d + rejected %d != 5 submissions",
				cs.Class, cs.Completed, cs.Rejected)
		}
	}
}

// fakeStream builds a queueable/activatable stream without a pipeline —
// enough state for the admission controller's barrier-side logic.
func fakeStream(s *Server, id int, class string, slo, occ, p95, cont float64) *stream {
	st := &stream{id: id, srv: s, cfg: StreamConfig{
		Name: fmt.Sprintf("%s-%d", class, id), Class: class, SLO: slo,
	}}
	st.weight = s.weightOf(class)
	st.occ = occ
	st.recentP95 = p95
	st.lastCont = cont
	return st
}

// bareServer builds a Server for admission-logic unit tests: no models,
// no workers — only the barrier-side state machines are exercised.
func bareServer(opts Options) *Server {
	return &Server{opts: opts.withDefaults()}
}

// Under WFQ the queue must interleave classes by weight: a weight-4
// class gets four slots for each weight-1 slot, not strict priority.
func TestWFQQueueOrder(t *testing.T) {
	s := bareServer(Options{
		Admission:    AdmissionWFQ,
		ClassWeights: map[string]int{"gold": 4, "besteffort": 1},
	})
	// Enqueue 2 best-effort first, then 4 gold: strict FIFO would keep
	// the best-effort pair in front; strict priority would put all gold
	// first. WFQ tags (besteffort: 1, 2; gold: 0.25, 0.5, 0.75, 1.0)
	// interleave: three gold, then the tag-tied pair (besteffort id 1
	// before gold id 6), then the last best-effort.
	for i := 1; i <= 2; i++ {
		s.enqueueLocked(fakeStream(s, i, "besteffort", 100, 0, 0, 0))
	}
	for i := 3; i <= 6; i++ {
		s.enqueueLocked(fakeStream(s, i, "gold", 33.3, 0, 0, 0))
	}
	var got []int
	for _, st := range s.queue {
		got = append(got, st.id)
	}
	want := []int{3, 4, 5, 1, 6, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WFQ queue order = %v, want %v", got, want)
		}
	}
}

// victimLocked must pick the lowest weight below the demand, breaking
// ties by highest occupancy, then by highest (youngest) id.
func TestVictimSelection(t *testing.T) {
	s := bareServer(Options{
		Preempt:      true,
		ClassWeights: map[string]int{"gold": 4, "silver": 2, "besteffort": 1},
	})
	s.active = []*stream{
		fakeStream(s, 1, "silver", 50, 0.9, 0, 0),
		fakeStream(s, 2, "besteffort", 100, 0.3, 0, 0),
		fakeStream(s, 3, "besteffort", 100, 0.7, 0, 0),
		fakeStream(s, 4, "besteffort", 100, 0.7, 0, 0),
	}
	v := s.victimLocked(4)
	if v == nil || v.id != 4 {
		t.Fatalf("victim for weight-4 demand = %+v, want id 4 (lowest weight, highest occ, youngest)", v)
	}
	// Demand of weight 2 cannot touch silver (weight not strictly lower
	// than... silver IS weight 2, not < 2 is false only for besteffort).
	v = s.victimLocked(2)
	if v == nil || v.cfg.Class != "besteffort" {
		t.Fatalf("victim for weight-2 demand = %+v, want a besteffort stream", v)
	}
	// Nothing outranked: no victim.
	if v := s.victimLocked(1); v != nil {
		t.Fatalf("weight-1 demand found victim %+v, want none", v)
	}
}

// A saturated board must evict best-effort streams when an unmeasured
// gold arrival heads the queue: the first-admission headroom cap
// (MaxOccupancy scaled down by the arrival's weight) triggers the
// queue-head preemption pass before the gold stream's first round, and
// the evictions are counted, buffered as events, and re-queued.
func TestQueueHeadPreemptionForGoldArrival(t *testing.T) {
	s := bareServer(Options{
		Admission: AdmissionWFQ, Preempt: true,
		ClassWeights: map[string]int{"gold": 4, "besteffort": 1},
	})
	// Five measured best-effort streams, comfortably within their own
	// loose SLO (feasOcc won't bind), saturating the board at 4.0.
	for i := 1; i <= 5; i++ {
		st := fakeStream(s, i, "besteffort", 100, 0.8, 60, 0.5)
		s.active = append(s.active, st)
	}
	// One unmeasured gold arrival in the queue.
	s.enqueueLocked(fakeStream(s, 6, "gold", 33.3, 0.5, 0, 0))

	s.preemptLocked()

	if len(s.active) != 0 {
		t.Fatalf("active after preemption = %d streams, want 0 (headroom cap %v)",
			len(s.active), s.opts.MaxOccupancy/4)
	}
	if s.preempts != 5 {
		t.Fatalf("preempts = %d, want 5", s.preempts)
	}
	if s.queue[0].cfg.Class != "gold" {
		t.Fatalf("queue head after preemption = %q, want the gold stream", s.queue[0].cfg.Class)
	}
	ev := s.DrainStreamEvents()
	if len(ev) != 5 {
		t.Fatalf("buffered events = %d, want 5", len(ev))
	}
	for _, e := range ev {
		if e.Kind != "preempt" || e.Class != "besteffort" || e.Retired {
			t.Fatalf("unexpected event %+v", e)
		}
	}
}

// An active high-tier stream whose measured tail latency is infeasible
// under the current aggregate occupancy must trigger eviction of
// lower-weight streams, and a stream past its preemption budget must be
// marked retired on the event.
func TestActiveInfeasibilityPreemption(t *testing.T) {
	s := bareServer(Options{
		Admission: AdmissionWFQ, Preempt: true,
		ClassWeights: map[string]int{"gold": 4, "besteffort": 1},
	})
	// Gold measured well over its SLO under heavy contention: tail 48ms
	// against a 33.3 SLO at contention 0.9 — feasOcc comes out far below
	// the aggregate.
	gold := fakeStream(s, 1, "gold", 33.3, 0.8, 48, 0.9)
	s.active = append(s.active, gold)
	for i := 2; i <= 5; i++ {
		s.active = append(s.active, fakeStream(s, i, "besteffort", 100, 0.8, 60, 0.9))
	}

	s.preemptLocked()

	if s.preempts == 0 {
		t.Fatal("no evictions despite gold SLO infeasibility")
	}
	for _, st := range s.active {
		if st.cfg.Class == "besteffort" && st.occ+gold.occ > gold.feasOcc {
			// Any survivors must leave gold within its feasible cap.
			agg := 0.0
			for _, a := range s.active {
				agg += a.occ
			}
			if agg > gold.feasOcc {
				t.Fatalf("aggregate %0.2f still above gold feasOcc %0.2f", agg, gold.feasOcc)
			}
		}
	}
	if len(s.queue) != s.preempts {
		t.Fatalf("evicted streams re-queued = %d, want %d", len(s.queue), s.preempts)
	}
}

// Past its eviction budget a stream must not bounce back to the queue;
// the event is marked Retired. (Budget -1 = retire on first eviction;
// retirement calls finalize, so this uses real served streams.)
func TestPreemptBudgetRetires(t *testing.T) {
	s := setup(t)
	srv, err := New(Options{
		Models: s.Models, Admission: AdmissionWFQ, Preempt: true,
		PreemptLimit: -1,
		ClassWeights: map[string]int{"gold": 4, "besteffort": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		class, slo := "besteffort", 100.0
		if i == 0 {
			class, slo = "gold", 33.3
		}
		v := vid.Generate(fmt.Sprintf("pr%d", i), int64(i+1), vid.GenConfig{Frames: 48})
		if _, err := srv.Submit(StreamConfig{
			Name: fmt.Sprintf("%s-%d", class, i), Video: v, SLO: slo, Class: class,
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep := srv.Drain()
	if rep.Preemptions == 0 {
		t.Fatal("expected preemptions under the contended mixed-tier run")
	}
	if rep.PreemptRetired != rep.Preemptions {
		t.Fatalf("PreemptRetired = %d, want %d (budget -1 retires on first eviction)",
			rep.PreemptRetired, rep.Preemptions)
	}
	retiredRows := 0
	for _, r := range rep.Streams {
		if r.PreemptRetired {
			if !r.Quarantined {
				t.Fatalf("stream %s retired by preemption but not marked quarantined", r.Name)
			}
			retiredRows++
		}
	}
	if retiredRows != rep.PreemptRetired {
		t.Fatalf("rows with PreemptRetired = %d, want %d", retiredRows, rep.PreemptRetired)
	}
}

// StreamStates is documented safe to call at any time, and so is
// Occupancies; under the race detector this hammers both from another
// goroutine while rounds run, proving the barrier-side snapshots keep
// them off worker-owned state.
func TestStreamStatesConcurrentWithRounds(t *testing.T) {
	s := setup(t)
	srv, err := New(Options{Models: s.Models})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		v := vid.Generate(fmt.Sprintf("ss%d", i), int64(i+1), vid.GenConfig{Frames: 36})
		if _, err := srv.Submit(StreamConfig{Video: v, SLO: 50}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		occ := map[int]float64{}
		for {
			select {
			case <-done:
				return
			default:
				for _, st := range srv.StreamStates() {
					_ = st.Frames
					_ = st.DegradeLevel
					_ = st.Occ
				}
				srv.Occupancies(occ)
			}
		}
	}()
	srv.Drain()
	close(done)
	wg.Wait()
}

// A class whose streams all departed with unserved finish tags (e.g.
// preempt-retired from the queue) must not bank that virtual-time debt:
// on re-arrival it re-enters at the current system virtual time like
// any idle class. Without barrier-time pruning of wfqLastF the
// re-arriving stream inherits the stale tag and is ordered behind peers
// it should interleave with.
func TestWFQDepartThenRearrive(t *testing.T) {
	s := bareServer(Options{
		Admission:    AdmissionWFQ,
		ClassWeights: map[string]int{"gold": 4, "besteffort": 1},
	})
	// A best-effort stream is enqueued (tag 1.0, wfqLastF[besteffort]=1)
	// and departs before being served — the preempt-retire path.
	be := fakeStream(s, 1, "besteffort", 100, 0, 0, 0)
	s.enqueueLocked(be)
	s.queue = nil // retired while queued: tag never advanced wfqVirt
	s.pruneWFQLocked()
	if _, ok := s.wfqLastF["besteffort"]; ok {
		t.Fatal("drained class kept its stale wfqLastF tag")
	}

	// Much later the schedule has moved on (gold kept the board busy).
	for i := 2; i <= 5; i++ {
		st := fakeStream(s, i, "gold", 33.3, 0, 0, 0)
		s.enqueueLocked(st)
		s.active = append(s.active, st) // admitted
		if st.finishTag > s.wfqVirt {
			s.wfqVirt = st.finishTag
		}
	}
	s.queue = nil

	// Re-arrival: the class must start from wfqVirt (tag = virt + 1/w),
	// not from its stale pre-departure tag.
	re := fakeStream(s, 6, "besteffort", 100, 0, 0, 0)
	s.enqueueLocked(re)
	want := s.wfqVirt + 1
	if re.finishTag != want {
		t.Fatalf("re-arrival finishTag = %v, want %v (wfqVirt %v + 1/weight)",
			re.finishTag, want, s.wfqVirt)
	}

	// Order check: with the fresh tag, a following gold burst interleaves
	// correctly — the re-arrived best-effort stream sits exactly one unit
	// past the schedule front, so three gold tags (virt+0.25 .. +0.75)
	// sort strictly before it and the fourth (virt+1.0) ties, losing the
	// (tag, id) tie-break to the earlier-arrived stream: position 3.
	// With the stale tag the stream would have landed at the queue tail.
	for i := 7; i <= 12; i++ {
		s.enqueueLocked(fakeStream(s, i, "gold", 33.3, 0, 0, 0))
	}
	pos := -1
	for i, st := range s.queue {
		if st == re {
			pos = i
		}
	}
	if pos != 3 {
		var order []int
		for _, st := range s.queue {
			order = append(order, st.id)
		}
		t.Fatalf("re-arrived stream at queue position %d, want 3 (order %v)", pos, order)
	}

	// Live classes must never be pruned: gold is still active.
	s.pruneWFQLocked()
	if _, ok := s.wfqLastF["gold"]; !ok {
		t.Fatal("active class was pruned")
	}
}

// Regression shape from the bug report: without pruning, the stale tag
// ordered the re-arrival strictly after where a fresh arrival of the
// same class would land.
func TestWFQPruneKeepsQueuedClasses(t *testing.T) {
	s := bareServer(Options{
		Admission:    AdmissionWFQ,
		ClassWeights: map[string]int{"gold": 4, "besteffort": 1},
	})
	s.enqueueLocked(fakeStream(s, 1, "besteffort", 100, 0, 0, 0))
	s.pruneWFQLocked() // stream still queued: class is live
	if _, ok := s.wfqLastF["besteffort"]; !ok {
		t.Fatal("queued class was pruned")
	}
}

// tailPct must follow the configured admission quantile: the preemption
// controller plans against the same tail the schedulers admit on, and
// falls back to the P95 criterion under mean admission.
func TestTailPctFollowsRiskQuantile(t *testing.T) {
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 95},    // mean admission: the SLO attainment criterion's P95
		{0.95, 95}, // risk at the default quantile coincides
		{0.99, 99},
		{0.5, 50},
	}
	for _, c := range cases {
		s := bareServer(Options{Preempt: true, RiskQuantile: c.q})
		if got := s.tailPct(); got != c.want {
			t.Fatalf("tailPct with RiskQuantile %v = %v, want %v", c.q, got, c.want)
		}
	}
}

// Under a seeded contention-burst latency profile, planning against a
// higher quantile must tighten the feasible-occupancy cap: the p99 tail
// of a bursty window sits well above its p95, so the occupancy headroom
// that keeps the SLO feasible shrinks. This is the quantile inversion
// the preemption controller performs when RiskQuantile is configured —
// the cap is solved from the measured q-quantile, not the mean.
func TestFeasibleOccQuantileInversion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var lat metric.LatencySeries
	for i := 0; i < 400; i++ {
		v := 40 + 4*rng.NormFloat64()
		if rng.Float64() < 0.06 {
			v *= 1.8 // contention burst
		}
		if v < 1 {
			v = 1
		}
		lat.Add(v)
	}
	mk := func(q float64) (*Server, *stream) {
		s := bareServer(Options{Preempt: true, RiskQuantile: q,
			ClassWeights: map[string]int{"gold": 4}})
		st := fakeStream(s, 1, "gold", 60, 0.7, lat.PercentileSince(0, s.tailPct()), 0.5)
		return s, st
	}
	s95, st95 := mk(0)    // mean admission plans against P95
	s99, st99 := mk(0.99) // risk admission at q=0.99 plans against P99
	if st99.recentP95 <= st95.recentP95 {
		t.Fatalf("burst profile should have p99 (%v) > p95 (%v)",
			st99.recentP95, st95.recentP95)
	}
	cap95 := s95.feasibleOccLocked(st95)
	cap99 := s99.feasibleOccLocked(st99)
	if math.IsInf(cap95, 1) || math.IsInf(cap99, 1) {
		t.Fatalf("both caps should be finite: p95 cap %v, p99 cap %v", cap95, cap99)
	}
	if cap99 >= cap95 {
		t.Fatalf("p99 planning must tighten the cap: p99 cap %v >= p95 cap %v", cap99, cap95)
	}
}

// feasibleOccLocked's two-stage solve: a stream that fits the shrunk
// planning budget gets its cap from the budget; one that cannot hit the
// budget even alone — but can still meet the raw SLO — is planned
// against the raw SLO instead of being written off; and only a stream
// whose tail exceeds the raw SLO with the board to itself reports +Inf
// (preemption cannot help it).
func TestFeasibleOccBudgetVsRawSLOFallback(t *testing.T) {
	s := bareServer(Options{Preempt: true})
	// Budget-feasible: tail 46 against SLO 60 (budget 52.8) at current
	// contention 0.5 — headroom exists, the cap is finite.
	fit := fakeStream(s, 1, "gold", 60, 0.9, 46, 0.5)
	capFit := s.feasibleOccLocked(fit)
	if math.IsInf(capFit, 1) {
		t.Fatal("budget-feasible stream should get a finite cap")
	}
	// Raw-SLO fallback: tail 46 against SLO 50 at contention 0 — the
	// 44ms planning budget is below the tail even on an idle board, but
	// the raw 50ms SLO is reachable, so the cap must protect the SLO
	// rather than return +Inf.
	raw := fakeStream(s, 2, "gold", 50, 0.9, 46, 0)
	capRaw := s.feasibleOccLocked(raw)
	if math.IsInf(capRaw, 1) {
		t.Fatal("raw-SLO fallback should yield a finite cap, not +Inf")
	}
	// The fallback plans against the looser raw-SLO target from a
	// lower contention baseline, so its cap cannot exceed the
	// comfortably-feasible stream's.
	if capRaw >= capFit {
		t.Fatalf("fallback cap %v should be tighter than the budget-feasible cap %v",
			capRaw, capFit)
	}
	// Hopeless: tail above the raw SLO at zero contention — even an
	// empty board cannot save it; preemption must not be attempted.
	lost := fakeStream(s, 3, "gold", 50, 0.9, 56, 0)
	if got := s.feasibleOccLocked(lost); !math.IsInf(got, 1) {
		t.Fatalf("stream infeasible even alone should report +Inf, got %v", got)
	}
}
