package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fullDecision returns a Decision with every field populated — fault,
// adaptation and recovery state, and the full replay payload — so the
// round-trip exercises the entire wire schema.
func fullDecision() Decision {
	return Decision{
		Stream: 3, StreamName: "stream-3", Seq: 7, Frame: 56, Gen: 2,
		SimMS:      1234.5,
		Policy:     "LiteReconfig",
		Contention: 0.42,
		Features:   []string{"resnet", "hoc"}, BenefitMAP: 0.031, FeatureCostMS: 11.5,
		Branch: "s8_n8_trk", Switched: true, SwitchCostMS: 3.25,
		PredAccuracy: 0.61, PredLatencyMS: 29.7, FeasibleBranches: 12, Fallback: true,
		SchedMS: 4.75,
		FaultMS: 8.5, FaultEvents: []string{"spike"},
		Degrade: 1, Breaker: "half-open", FailedFeatures: []string{"hog"},
		AdaptVersion: "s3.v2", AdaptEvent: "promote",
		AdaptChampErrMS: 2.1, AdaptChalErrMS: 1.6,
		GoFFrames: 8, RealizedMS: 31.25,
		RiskQ: 0.95, PredP95MS: 41.5, FailProb: 0.0625,
		Replay: &ReplayPayload{
			SLOMS: 33.3, SafetyFactor: 0.95, BudgetMS: 31.635,
			Hysteresis: 0.01, CostWeight: 0.5,
			S0MS: 1.5, SchedSpentMS: 4.75,
			ManageOverhead: true, DisableSwitchCost: true,
			HasCur: true, CurBranch: "s4_n4_det",
			SwitchMS: []float64{0, 1.5, 2.25},
			GPUScale: 1.31, CPUScale: 1.08, CPUAdj: 1.02,
			NumBranches: 3,
			Light:       []float64{0.1, 0.2, 0.3, 0.4},
			Heavy:       map[string][]float64{"resnet": {1, 2}, "hoc": {3}},
			AccLight:    []float64{0.5, 0.55, 0.6},
			Acc:         []float64{0.52, 0.57, 0.61},
			KernelMS:    []float64{10.5, 20.25, 30.125},
			FeatCostMS:  map[string]float64{"resnet": 9.5, "hoc": 2.25},
			PolicyRev:   1,
			RiskQ:       0.95,
			RiskFactor:  []float64{1.25, 1.5e-7, 3e21},
			FailProb:    []float64{0.02, 0.05, 0.125},
		},
	}
}

// TestFullDecisionSetsEveryField keeps fullDecision complete: a field
// added to the schema later and left zero here would be omitted from the
// fixture's trace line, so neither the round trip nor the canonical
// decoder's coverage test would ever see it.
func TestFullDecisionSetsEveryField(t *testing.T) {
	d := fullDecision()
	for _, v := range []reflect.Value{reflect.ValueOf(d), reflect.ValueOf(*d.Replay)} {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && v.Field(i).IsZero() {
				t.Errorf("fullDecision leaves %s.%s zero", v.Type().Name(), f.Name)
			}
		}
	}
}

// TestDecisionRoundTrip pins the write → read → write cycle: a fully
// populated trace decodes back structurally identical and re-encodes to
// the same bytes. Any schema field that fails to survive the trip —
// replay payload included — breaks counterfactual replay.
func TestDecisionRoundTrip(t *testing.T) {
	o := New()
	o.record(fullDecision())
	bare := fullDecision()
	bare.Stream, bare.Seq, bare.Gen = 4, 0, 0
	bare.Replay = nil
	o.record(bare)

	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	got, err := ReadDecisions(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	want := o.Decisions()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mutated the trace:\ngot  %+v\nwant %+v", got, want)
	}

	re := New()
	for _, d := range got {
		re.record(d)
	}
	var buf2 bytes.Buffer
	if err := re.WriteTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Fatalf("re-encoded trace differs from the original:\ngot  %s\nwant %s",
			buf2.String(), first)
	}
}

// TestDecisionSchemaGolden pins the serialized form of a fully
// populated decision against a golden file: field names, order and
// omitempty behavior are the wire contract that recorded corpora and
// external consumers depend on. Regenerate with -update after a
// deliberate schema change.
func TestDecisionSchemaGolden(t *testing.T) {
	o := New()
	o.record(fullDecision())
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "decision_schema.golden.jsonl"), buf.Bytes())
}

// compareGolden pins got against the golden file, honoring the
// package's -update flag (shared with the exposition golden).
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("serialized schema drifted from golden (run with -update if deliberate)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestDecisionOmitsOptional pins the other half of the omitempty
// contract: a minimal healthy decision without the replay flag must not
// leak any of the optional keys — that is what keeps pre-replay traces
// byte-identical.
func TestDecisionOmitsOptional(t *testing.T) {
	o := New()
	o.record(Decision{Stream: 1, Seq: 2, Frame: 16, SimMS: 10, Branch: "b", GoFFrames: 8})
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"replay", "gen", "degrade", "breaker", "fault",
		"adapt", "failed_features", "policy", "features", "fallback", "switched"} {
		if strings.Contains(buf.String(), `"`+key) {
			t.Fatalf("minimal decision leaked optional key %q: %s", key, buf.String())
		}
	}
}

// TestFleetEventRoundTrip does the same write → read check for the
// fleet trace.
func TestFleetEventRoundTrip(t *testing.T) {
	o := New()
	o.RecordFleetEvent(FleetEvent{Barrier: 0, Kind: "place", Stream: 1, Name: "s1",
		Tier: "gold", Tenant: "t0", To: "b0", Reason: "admit", PredAcc: 0.6, PredMS: 30})
	o.RecordFleetEvent(FleetEvent{Barrier: 4, Kind: "migrate", Stream: 1, From: "b0",
		To: "b1", Reason: "pressure", CostMS: 12.5})
	o.RecordFleetEvent(FleetEvent{Barrier: 6, Kind: "restore", Stream: 1, To: "b2",
		Replayed: 2})

	var buf bytes.Buffer
	if err := o.WriteFleetTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFleetEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, o.FleetEvents()) {
		t.Fatalf("fleet round-trip mutated the trace:\ngot  %+v\nwant %+v",
			got, o.FleetEvents())
	}
}

// TestReadRejectsMalformed: decoders must identify the broken record,
// not return a silently short slice.
func TestReadRejectsMalformed(t *testing.T) {
	o := New()
	o.record(fullDecision())
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadDecisions(bytes.NewReader(data[:len(data)-20])); err == nil {
		t.Fatal("truncated decision trace decoded without error")
	}
	if _, err := ReadFleetEvents(strings.NewReader("{\"kind\":\"place\"}\n{oops\n")); err == nil {
		t.Fatal("malformed fleet trace decoded without error")
	}
}
