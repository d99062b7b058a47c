package fleet

import (
	"bytes"
	"testing"

	"litereconfig/internal/obs"
	"litereconfig/internal/serve"
	"litereconfig/internal/simlat"
	"litereconfig/internal/workload"
)

// runScenario drives one open-loop workload run: a fresh schedule from
// the named scenario, one tx2 board (the lr load default), WFQ with tier
// preemption or the FIFO ablation.
func runScenario(t *testing.T, scenario string, seed int64, wfq bool,
	queueLimit int, observer *obs.Observer) (*Report, []workload.Tier) {

	t.Helper()
	s := setup(t)
	wcfg, err := workload.Scenario(scenario, "small", seed)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := simlat.DeviceByName("tx2")
	opts := Options{
		Models:     s.Models,
		Boards:     []BoardConfig{{Name: "b0", Device: dev, GPUSlots: 2}},
		Source:     sched,
		QueueLimit: queueLimit,
		Observer:   observer,
	}
	if wfq {
		opts.Admission = serve.AdmissionWFQ
		opts.ClassWeights = workload.Weights(wcfg.Tiers)
		opts.Preempt = true
	}
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return f.Run(), wcfg.Tiers
}

func classStats(rep *Report) map[string]serve.ClassStats {
	out := map[string]serve.ClassStats{}
	for _, c := range rep.Classes {
		out[c.Class] = c
	}
	return out
}

// The headline acceptance criterion: on the flash-crowd scenario,
// weighted-fair admission with tier preemption must strictly improve
// gold-tier SLO attainment over the FIFO ablation on the same arrival
// schedule, and must do so by actually preempting someone.
func TestFlashcrowdWFQBeatsFIFOForGold(t *testing.T) {
	repW, _ := runScenario(t, "flashcrowd", 7, true, 0, nil)
	repF, _ := runScenario(t, "flashcrowd", 7, false, 0, nil)

	if repW.Arrivals != repF.Arrivals {
		t.Fatalf("policies saw different schedules: %d vs %d arrivals",
			repW.Arrivals, repF.Arrivals)
	}
	if repW.Preemptions == 0 {
		t.Fatal("WFQ+preempt run recorded no preemptions")
	}
	if repF.Preemptions != 0 {
		t.Fatalf("FIFO ablation recorded %d preemptions, want 0", repF.Preemptions)
	}
	gw, gf := classStats(repW)["gold"], classStats(repF)["gold"]
	if gw.Completed == 0 {
		t.Fatal("no gold streams completed under WFQ")
	}
	if gw.AttainRate <= gf.AttainRate {
		t.Fatalf("gold attainment: wfq %.2f (%d/%d) vs fifo %.2f (%d/%d) — want a strict improvement",
			gw.AttainRate, gw.Attained, gw.Completed,
			gf.AttainRate, gf.Attained, gf.Completed)
	}
	// Fairness: the gold win must not come from starving the other tiers
	// outright — they still complete streams.
	for _, tier := range []string{"silver", "besteffort"} {
		if classStats(repW)[tier].Completed == 0 {
			t.Fatalf("tier %s completed nothing under WFQ+preempt", tier)
		}
	}
}

// Fixed-seed open-loop runs must stay byte-identical end to end: the
// merged scheduler decision trace and the fleet workload trace —
// including the arrive, depart and preempt events this subsystem adds —
// must match across two runs on fresh schedules.
func TestOpenLoopTraceDeterminism(t *testing.T) {
	trace := func() (string, string) {
		rep, _ := runScenario(t, "flashcrowd", 7, true, 0, obs.New())
		var dec, ev bytes.Buffer
		if err := rep.WriteTrace(&dec); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteFleetTrace(&ev); err != nil {
			t.Fatal(err)
		}
		return dec.String(), ev.String()
	}
	dec1, ev1 := trace()
	dec2, ev2 := trace()
	if dec1 != dec2 {
		t.Fatal("scheduler decision traces differ across fixed-seed runs")
	}
	if ev1 != ev2 {
		t.Fatal("fleet workload traces differ across fixed-seed runs")
	}
	for _, kind := range []string{`"kind":"arrive"`, `"kind":"depart"`, `"kind":"preempt"`} {
		if !bytes.Contains([]byte(ev1), []byte(kind)) {
			t.Fatalf("fleet trace missing %s events", kind)
		}
	}
}

// Conservation: every arrival the fleet admitted or refused must be
// accounted for — per tier, arrivals equal completions plus rejections,
// and preempted streams are not double-booked (they re-queue or retire
// into the completed set). A tight fleet queue forces the rejection
// term to be non-trivial.
func TestOpenLoopConservationPerTier(t *testing.T) {
	rep, tiers := runScenario(t, "flashcrowd", 7, true, 2, nil)
	if rep.Rejected == 0 {
		t.Fatal("queue limit 2 produced no rejections; conservation test is vacuous")
	}
	cs := classStats(rep)
	totalArr, totalDone, totalRej := 0, 0, 0
	for _, tier := range tiers {
		arr := rep.ArrivalsByClass[tier.Name]
		c := cs[tier.Name]
		if c.Completed+c.Rejected != arr {
			t.Fatalf("tier %s: completed %d + rejected %d != %d arrivals",
				tier.Name, c.Completed, c.Rejected, arr)
		}
		totalArr += arr
		totalDone += c.Completed
		totalRej += c.Rejected
	}
	if totalArr != rep.Arrivals {
		t.Fatalf("per-tier arrivals sum %d != fleet total %d", totalArr, rep.Arrivals)
	}
	if totalDone+totalRej != rep.Arrivals {
		t.Fatalf("completions %d + rejections %d != %d arrivals",
			totalDone, totalRej, rep.Arrivals)
	}
	if totalRej != rep.Rejected {
		t.Fatalf("per-tier rejections sum %d != fleet total %d", totalRej, rep.Rejected)
	}
}

// The diurnal scenario exercises mid-run arrival and departure without a
// burst: every arrival must still be fully accounted for under the
// default queue limit, and the run must terminate (Source exhausted,
// boards drained).
func TestDiurnalOpenLoopCompletes(t *testing.T) {
	rep, tiers := runScenario(t, "diurnal", 11, true, 0, nil)
	if rep.Arrivals == 0 {
		t.Fatal("diurnal scenario generated no arrivals")
	}
	cs := classStats(rep)
	for _, tier := range tiers {
		c := cs[tier.Name]
		if c.Completed+c.Rejected != rep.ArrivalsByClass[tier.Name] {
			t.Fatalf("tier %s: completed %d + rejected %d != %d arrivals",
				tier.Name, c.Completed, c.Rejected, rep.ArrivalsByClass[tier.Name])
		}
	}
	if rep.Barriers == 0 {
		t.Fatal("run recorded no barriers")
	}
}
