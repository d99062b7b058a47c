package fleet

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"litereconfig/internal/fault"
	"litereconfig/internal/obs"
	"litereconfig/internal/serve"
	"litereconfig/internal/simlat"
	"litereconfig/internal/workload"
)

var updateGolden = flag.Bool("update_golden", false,
	"rewrite testdata/*.golden.jsonl from the current code")

// goldenFleetRun drives the pinned open-loop fleet scenario: four
// boards under a constant-plus-flash arrival schedule, WFQ admission
// with tier preemption and risk-aware placement at the 0.95 latency
// quantile. The boards differ so that scores differ: b0 is heavily
// coupled and its worker panics get it quarantined early, b1 crashes
// mid-run, b2 blacks out and recovers, and b3 is a Xavier. The gold
// tier's 8 ms SLO and the contention floors contendedSource stamps on
// arrivals leave some streams with no feasible branch anywhere. It
// returns the fleet-event trace and the merged decision trace. The run
// reaches every placement path (feasible and best-effort placement,
// push-through, evacuation, requeue, SLO migration checks, restore
// after a crash), so a change to placement scoring that alters a single
// choice or predicted score shows up as a diff.
func goldenFleetRun(t *testing.T) (events, decisions []byte) {
	t.Helper()
	s := setup(t)
	sch, err := workload.Generate(workload.Config{
		Seed:      5,
		HorizonMS: 8000,
		Processes: []workload.Process{
			workload.Constant{PerSec: 3},
			workload.Flash{AtMS: 2000, DurationMS: 1500, PerSec: 12},
		},
		Tiers:     goldenTiers,
		Tenants:   4,
		MinFrames: 24, MaxFrames: 90,
		TailAlpha: 1.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	boards := []BoardConfig{
		{Name: "b0", Coupling: 3, RetryLimit: 4,
			Faults: &fault.Config{Seed: 7, PanicRate: 0.1}},
		{Name: "b1", Faults: &fault.Config{CrashRound: 14}},
		{Name: "b2", Faults: &fault.Config{BlackoutRound: 16, BlackoutRounds: 4}},
		{Name: "b3", Device: simlat.Xavier},
	}
	f, err := New(Options{
		Models:       s.Models,
		Boards:       boards,
		Source:       &contendedSource{sch: sch},
		Admission:    serve.AdmissionWFQ,
		ClassWeights: workload.Weights(goldenTiers),
		Preempt:      true,
		RiskQuantile: 0.95,
		Observer:     obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := f.Run()
	var ev, dec bytes.Buffer
	if err := rep.WriteFleetTrace(&ev); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteTrace(&dec); err != nil {
		t.Fatal(err)
	}
	return ev.Bytes(), dec.Bytes()
}

// TestFleetGolden pins the byte-exact fleet-event and decision traces
// of the golden scenario across commits. TestFleetTraceByteIdentical
// only compares two runs of one build; this catches a placement change
// that is deterministic but different.
func TestFleetGolden(t *testing.T) {
	events, decisions := goldenFleetRun(t)
	for _, want := range []string{`"kind":"place"`, `"kind":"migrate"`, `"kind":"requeue"`,
		`"kind":"crash"`, `"kind":"restore"`, `"kind":"preempt"`, `"reason":"best effort`} {
		if !bytes.Contains(events, []byte(want)) {
			t.Fatalf("golden scenario recorded no %s event; it no longer covers that path", want)
		}
	}
	checkGolden(t, "fleet_events.golden.jsonl", events)
	checkGolden(t, "fleet_decisions.golden.jsonl", decisions)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden %s updated: %d bytes", name, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update_golden to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := range gotLines {
		if i >= len(wantLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("%s diverges at line %d:\n got: %s\nwant: %s",
				name, i+1, gotLines[i], wantLines[min(i, len(wantLines)-1)])
		}
	}
	t.Fatalf("%s diverges: got %d bytes, want %d", name, len(got), len(want))
}

// contendedSource stamps arrivals with a cycling base contention floor
// (0, 0.25, 0.5, 0.75), so streams score near their SLO.
type contendedSource struct {
	sch *workload.Schedule
	n   int
}

func (s *contendedSource) Take(nowMS float64) []serve.StreamConfig {
	cfgs := s.sch.Take(nowMS)
	for i := range cfgs {
		cfgs[i].BaseContention = 0.25 * float64(s.n%4)
		s.n++
	}
	return cfgs
}

func (s *contendedSource) Exhausted() bool { return s.sch.Exhausted() }

// goldenTiers is DefaultTiers with a gold SLO the cheapest branch
// misses under contention.
var goldenTiers = []workload.Tier{
	{Name: "gold", SLOMS: 8, Weight: 4, Share: 0.3},
	{Name: "silver", SLOMS: 50, Weight: 2, Share: 0.3},
	{Name: "besteffort", SLOMS: 100, Weight: 1, Share: 0.4},
}
