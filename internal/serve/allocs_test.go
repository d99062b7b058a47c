package serve

import (
	"testing"

	"litereconfig/internal/adapt"
	"litereconfig/internal/testutil"
)

// Building a stream is the serial per-placement cost of the fleet
// barrier: Prepare clones the board's models, builds the pipeline,
// clock, kernel and stepper, and queues the stream. A Clone shares the
// bundle's latency-model state, so the ceilings are small constants;
// only an adapter's challenger copies that state, per branch. The
// ceilings may fall, never rise.
func TestPrepareAllocsCeiling(t *testing.T) {
	s := setup(t)
	v := video(530, 40)
	for _, c := range []struct {
		name    string
		riskQ   float64
		adapt   *adapt.Config
		ceiling uint64
	}{
		{name: "plain", ceiling: 33},
		{name: "risk0.95", riskQ: 0.95, ceiling: 33},
		{name: "adapt", adapt: &adapt.Config{}, ceiling: 248},
	} {
		t.Run(c.name, func(t *testing.T) {
			const n = 40
			srv, err := New(Options{Models: s.Models, QueueLimit: n + 2,
				RiskQuantile: c.riskQ, Adapt: c.adapt})
			if err != nil {
				t.Fatal(err)
			}
			id := 0
			prepare := func() bool {
				if _, err := srv.Prepare(id, StreamConfig{Video: v, SLO: 50}); err != nil {
					t.Fatal(err)
				}
				id++
				return id < n
			}
			allocs, bytes := testutil.MeasureAllocs(t, func() { prepare() }, prepare, nil)
			if allocs > c.ceiling {
				t.Errorf("%d allocs (%d B) per Prepare, ceiling %d", allocs, bytes, c.ceiling)
			}
		})
	}
}

// Occupancies reports exactly the Occ field StreamStates would, by id.
func TestOccupanciesMatchStreamStates(t *testing.T) {
	s := setup(t)
	srv, err := New(Options{Models: s.Models})
	if err != nil {
		t.Fatal(err)
	}
	for i, est := range []float64{0, 0.2, -1, 0.7} {
		if _, err := srv.Prepare(10+i, StreamConfig{Video: video(540+int64(i), 20), SLO: 50, EstOccupancy: est}); err != nil {
			t.Fatal(err)
		}
	}
	occ := map[int]float64{99: 1}
	srv.Occupancies(occ)
	states := srv.StreamStates()
	if len(occ) != len(states)+1 || occ[99] != 1 {
		t.Fatalf("Occupancies wrote %v for %d streams, and must keep other keys", occ, len(states))
	}
	for _, st := range states {
		if got, ok := occ[st.ID]; !ok || got != st.Occ {
			t.Errorf("stream %d: Occupancies %v, StreamStates %v", st.ID, got, st.Occ)
		}
	}
}
