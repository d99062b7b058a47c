package fleet

import (
	"testing"

	"litereconfig/internal/serve"
	"litereconfig/internal/simlat"
	"litereconfig/internal/testutil"
)

// Scoring an already-profiled stream is pure board arithmetic: across
// every board, under mean and risk-aware placement, it allocates
// nothing. Each barrier scores every queued stream on every board, so
// an allocation here is paid boards × streams times per barrier.
func TestScoreBoardsZeroAllocs(t *testing.T) {
	s := setup(t)
	for _, q := range []float64{0, 0.95} {
		f, err := New(Options{
			Models: s.Models,
			Boards: []BoardConfig{
				{Name: "b0"}, {Name: "b1", Coupling: 2},
				{Name: "b2", Device: simlat.Xavier}, {Name: "b3", GPUSlots: 1},
			},
			RiskQuantile: q,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := serve.StreamConfig{Video: video(901, 12), SLO: 50, BaseContention: 0.2}
		prof := f.profile(cfg)
		var sink score
		allocs := testutil.AllocsPerRun(t, 300, func() {
			for _, b := range f.boards {
				sink = f.scoreBoard(b, cfg.SLO, cfg.BaseContention, prof, 0.1)
			}
			_, sink = f.bestBoard(cfg, prof, nil, false)
			_, sink = f.bestBoardQueue(cfg, prof)
		})
		if allocs != 0 {
			t.Fatalf("risk q %v: scoring %d boards allocated %d times per run, want 0",
				q, len(f.boards), allocs)
		}
		if !sink.feasible && sink.lat == 0 {
			t.Fatalf("risk q %v: scoring produced an empty score", q)
		}
	}
}
