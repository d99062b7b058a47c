package replay

import (
	"testing"

	"litereconfig/internal/adapt"
	"litereconfig/internal/fault"
	"litereconfig/internal/fixture"
	"litereconfig/internal/obs"
	"litereconfig/internal/serve"
	"litereconfig/internal/vid"
)

// recordServe runs a fixed-seed serve scenario with the replay payload
// on and returns its decisions. The scenario exercises the full
// decision path: mixed SLO classes under WFQ contention, plus a faulted
// adaptive run (watchdog ladder, breaker, extraction failures, adapter
// shadow pricing and promotions).
func recordServe(t testing.TB, opts serve.Options, faults *fault.Config, policies []serve.StreamConfig) []obs.Decision {
	t.Helper()
	set, err := fixture.Small()
	if err != nil {
		t.Fatal(err)
	}
	observer := obs.New()
	opts.Models = set.Models
	opts.Observer = observer
	opts.ReplayTrace = true
	srv, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if policies == nil {
		for i := 0; i < 4; i++ {
			v := vid.Generate("replaytest", 900+int64(i), vid.GenConfig{Frames: 60})
			if _, err := srv.Submit(serve.StreamConfig{
				Video:          v,
				SLO:            []float64{33.3, 50, 100, 50}[i],
				Seed:           int64(i) + 1,
				BaseContention: 0.25,
				Faults:         faults,
			}); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		for i := range policies {
			cfg := policies[i]
			cfg.Video = vid.Generate("replaytest", 900+int64(i), vid.GenConfig{Frames: 60})
			if _, err := srv.Submit(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.Drain()
	return observer.Decisions()
}

func identityEngine(t testing.TB) *Engine {
	t.Helper()
	set, err := fixture.Small()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Models: set.Models})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// requireIdentity replays the corpus with the unchanged policy and
// fails on any divergence — the fidelity invariant.
func requireIdentity(t *testing.T, ds []obs.Decision, label string) {
	t.Helper()
	if len(ds) == 0 {
		t.Fatalf("%s: no decisions recorded", label)
	}
	res, err := identityEngine(t).Replay(FromDecisions(label, ds))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Redecisions) != len(ds) {
		t.Fatalf("%s: replayed %d of %d decisions", label, len(res.Redecisions), len(ds))
	}
	if res.DivergedDecisions != 0 {
		for _, rd := range res.Divergences()[:min(5, res.DivergedDecisions)] {
			t.Errorf("%s: stream %d gen %d seq %d diverged on %v (branch %s)",
				label, rd.Stream, rd.Gen, rd.Seq, rd.Diverged, rd.Branch)
		}
		t.Fatalf("%s: %d/%d decisions diverged under the identity replay",
			label, res.DivergedDecisions, len(ds))
	}
	if res.MissingHeavy != 0 {
		t.Fatalf("%s: identity replay selected %d unrecorded heavy features", label, res.MissingHeavy)
	}
}

// TestIdentityServe is the fidelity invariant over a plain contended
// WFQ serve run: the unchanged policy reproduces every recorded
// decision bit-exactly.
func TestIdentityServe(t *testing.T) {
	ds := recordServe(t, serve.Options{
		Admission:    serve.AdmissionWFQ,
		ClassWeights: map[string]int{"33.3ms": 4, "50ms": 2},
	}, nil, nil)
	requireIdentity(t, ds, "serve-wfq")
}

// TestIdentityFaultedAdaptive covers the hostile half of the invariant:
// injected faults (latency spikes, extraction failures) drive the
// watchdog ladder and circuit breaker, and online adaptation swaps
// model versions mid-run. Replay must reproduce all of it from the
// recorded planning state.
func TestIdentityFaultedAdaptive(t *testing.T) {
	ds := recordServe(t, serve.Options{
		Adapt: &adapt.Config{},
	}, &fault.Config{Seed: 11, SpikeRate: 0.05, ExtractFailRate: 0.1}, nil)
	requireIdentity(t, ds, "serve-faulted-adaptive")

	// The scenario must actually exercise the degradation machinery, or
	// this test proves nothing about it.
	sawDegrade, sawFail := false, false
	for i := range ds {
		if ds[i].Degrade > 0 {
			sawDegrade = true
		}
		if len(ds[i].FailedFeatures) > 0 {
			sawFail = true
		}
	}
	if !sawDegrade || !sawFail {
		t.Fatalf("scenario too tame: degrade=%v extract-failures=%v", sawDegrade, sawFail)
	}
}

// TestIdentityMixedPolicies replays every scheduler variant, including
// the unmanaged-overhead MaxContent pair.
func TestIdentityMixedPolicies(t *testing.T) {
	ds := recordServe(t, serve.Options{}, nil, []serve.StreamConfig{
		{SLO: 33.3, Seed: 1, Policy: 0 /* full */},
		{SLO: 50, Seed: 2, Policy: 1 /* mincost */},
		{SLO: 100, Seed: 3, Policy: 2 /* maxcontent-resnet */},
		{SLO: 100, Seed: 4, Policy: 3 /* maxcontent-mobilenet */},
	})
	requireIdentity(t, ds, "serve-mixed-policies")
	policies := map[string]bool{}
	for i := range ds {
		policies[ds[i].Policy] = true
	}
	if len(policies) < 4 {
		t.Fatalf("expected 4 policy variants in the trace, saw %v", policies)
	}
}

// TestCounterfactualSLO sweeps the SLO and checks the estimator's
// gross direction: every point replays without error, and the loosest
// SLO's estimated attainment is at least the tightest's. (Strict
// monotonicity is not guaranteed — a looser budget re-decides onto
// heavier branches whose estimated latencies sit closer to the new
// objective.)
func TestCounterfactualSLO(t *testing.T) {
	ds := recordServe(t, serve.Options{
		Admission:    serve.AdmissionWFQ,
		ClassWeights: map[string]int{"33.3ms": 4, "50ms": 2},
	}, nil, nil)
	set, err := fixture.Small()
	if err != nil {
		t.Fatal(err)
	}
	corpus := FromDecisions("sweep", ds)
	attain := map[float64]float64{}
	for _, slo := range []float64{15, 33.3, 50, 100} {
		e, err := New(Config{Models: set.Models, SLOMS: slo})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Replay(corpus)
		if err != nil {
			t.Fatal(err)
		}
		if res.Replayed.Frames == 0 {
			t.Fatalf("slo %v: no frames replayed", slo)
		}
		if r := res.Replayed.AttainRate; r < 0 || r > 1 {
			t.Fatalf("slo %v: attainment %v out of range", slo, r)
		}
		attain[slo] = res.Replayed.AttainRate
	}
	if attain[100] < attain[15] {
		t.Fatalf("loosest SLO attains %v, below the tightest's %v", attain[100], attain[15])
	}
}

// TestCounterfactualPolicyOverride forces MinCost over a Full-policy
// trace: every decision must replay (no errors), no heavy features may
// be selected, and the estimated accuracy must not exceed the recorded
// content-aware run's.
func TestCounterfactualPolicyOverride(t *testing.T) {
	ds := recordServe(t, serve.Options{}, nil, nil)
	set, err := fixture.Small()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Models: set.Models, Policy: "mincost"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Replay(FromDecisions("mincost", ds))
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range res.Redecisions {
		if len(rd.Features) != 0 {
			t.Fatalf("mincost override selected features %v", rd.Features)
		}
	}
	if res.Replayed.MeanAccuracy > res.Recorded.MeanAccuracy+1e-9 {
		t.Fatalf("content-blind replay accuracy %v beats the recorded content-aware %v",
			res.Replayed.MeanAccuracy, res.Recorded.MeanAccuracy)
	}
}

// TestDegradeKnobs replays a faulted trace with the ladder off and
// re-simulated; both must complete, and DegradeOff must never replay a
// degraded (ladder-forced) selection.
func TestDegradeKnobs(t *testing.T) {
	ds := recordServe(t, serve.Options{},
		&fault.Config{Seed: 11, SpikeRate: 0.08, ExtractFailRate: 0.1}, nil)
	set, err := fixture.Small()
	if err != nil {
		t.Fatal(err)
	}
	corpus := FromDecisions("degrade", ds)
	for _, knob := range []DegradeKnob{DegradeOff, DegradeSim} {
		e, err := New(Config{Models: set.Models, Degrade: knob})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Replay(corpus); err != nil {
			t.Fatalf("degrade knob %v: %v", knob, err)
		}
	}
}

// TestMissingPayloadFailsLoudly: a corpus recorded without the replay
// flag must error, not silently verify nothing.
func TestMissingPayloadFailsLoudly(t *testing.T) {
	ds := []obs.Decision{{Stream: 0, Seq: 0, Branch: "s1_n1_det", Policy: "LiteReconfig"}}
	_, err := identityEngine(t).Replay(FromDecisions("bare", ds))
	if err == nil {
		t.Fatal("replay of a payload-less trace succeeded")
	}
}

// TestWrongBundleFailsLoudly: replaying against a bundle with a
// different branch space must error.
func TestWrongBundleFailsLoudly(t *testing.T) {
	ds := recordServe(t, serve.Options{}, nil, []serve.StreamConfig{{SLO: 50, Seed: 1}})
	if len(ds) == 0 {
		t.Fatal("no decisions")
	}
	ds[0].Replay.NumBranches++
	_, err := identityEngine(t).Replay(FromDecisions("wrong-bundle", ds))
	if err == nil {
		t.Fatal("replay with a mismatched branch space succeeded")
	}
}

// TestIdentityMixedRiskCorpus is the satellite invariant for the
// policy_rev trace versioning: one corpus mixing a legacy mean-admitted
// recording (PolicyRev 0, risk fields absent) and a risk-admitted
// recording (PolicyRev 1, per-branch risk tables in the payload) must
// identity-replay with zero divergence — each file under its own
// recorded admission procedure — with no flags, no sniffing, nothing
// but the versioned payload steering the replay.
func TestIdentityMixedRiskCorpus(t *testing.T) {
	mean := recordServe(t, serve.Options{
		Admission:    serve.AdmissionWFQ,
		ClassWeights: map[string]int{"33.3ms": 4, "50ms": 2},
	}, nil, nil)
	risk := recordServe(t, serve.Options{
		Admission:    serve.AdmissionWFQ,
		ClassWeights: map[string]int{"33.3ms": 4, "50ms": 2},
		RiskQuantile: 0.95,
	}, nil, nil)

	// The two recordings must carry distinct payload revisions.
	for i := range mean {
		if rp := mean[i].Replay; rp == nil || rp.PolicyRev != 0 || rp.RiskQ != 0 {
			t.Fatalf("mean decision %d: payload should be rev 0 with no risk fields, got %+v", i, rp)
		}
	}
	sawRev1 := false
	for i := range risk {
		if rp := risk[i].Replay; rp != nil && rp.PolicyRev == 1 && rp.RiskQ == 0.95 {
			sawRev1 = true
			break
		}
	}
	if !sawRev1 {
		t.Fatal("risk recording carries no PolicyRev 1 payloads")
	}

	corpus := FromDecisions("mean", mean)
	corpus.Files = append(corpus.Files, FromDecisions("risk", risk).Files...)
	res, err := identityEngine(t).Replay(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if res.DivergedDecisions != 0 || res.MissingHeavy != 0 {
		for _, rd := range res.Divergences()[:min(5, res.DivergedDecisions)] {
			t.Errorf("%s: stream %d gen %d seq %d diverged on %v (branch %s)",
				rd.File, rd.Stream, rd.Gen, rd.Seq, rd.Diverged, rd.Branch)
		}
		t.Fatalf("mixed-rev corpus diverged: %d decisions, %d content-blind",
			res.DivergedDecisions, res.MissingHeavy)
	}
}

// TestRiskQuantileOverride checks the counterfactual risk knob: forcing
// mean admission (q=0) over a risk-recorded corpus must re-decide at
// least one decision (the margin bound somewhere, or recording it was
// pointless), and re-running the recorded quantile through the
// override path — re-deriving factors from the same frozen bundle the
// recording served from — must reproduce the recording.
func TestRiskQuantileOverride(t *testing.T) {
	risk := recordServe(t, serve.Options{
		Admission:    serve.AdmissionWFQ,
		ClassWeights: map[string]int{"33.3ms": 4, "50ms": 2},
		RiskQuantile: 0.95,
	}, nil, nil)
	corpus := FromDecisions("risk", risk)
	set, err := fixture.Small()
	if err != nil {
		t.Fatal(err)
	}

	zero := 0.0
	eMean, err := New(Config{Models: set.Models, RiskQuantile: &zero})
	if err != nil {
		t.Fatal(err)
	}
	resMean, err := eMean.Replay(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if resMean.DivergedDecisions == 0 {
		t.Fatal("forcing mean admission over the risk corpus re-decided nothing; the risk margin never bound")
	}

	q := 0.95
	eSame, err := New(Config{Models: set.Models, RiskQuantile: &q})
	if err != nil {
		t.Fatal(err)
	}
	resSame, err := eSame.Replay(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if resSame.DivergedDecisions != 0 {
		for _, rd := range resSame.Divergences()[:min(5, resSame.DivergedDecisions)] {
			t.Errorf("stream %d gen %d seq %d diverged on %v",
				rd.Stream, rd.Gen, rd.Seq, rd.Diverged)
		}
		t.Fatalf("re-deriving q=0.95 from the recording's own bundle diverged on %d decisions",
			resSame.DivergedDecisions)
	}
}
