package main

import (
	"fmt"

	"litereconfig/internal/fault"
	"litereconfig/internal/fleet"
	"litereconfig/internal/obs"
	"litereconfig/internal/serve"
	"litereconfig/internal/workload"
)

// arrivalSource feeds the fleet from a workload schedule. The fleet
// polls it once per barrier, so its Take calls delimit the barriers:
// each opens a fleet.barrier span, closing the previous one, with the
// schedule's own Take (which generates each arrival's video) as a
// workload.take child. It also records when each arrival was due, so
// waits count from the due time rather than the barrier that polled it.
type arrivalSource struct {
	sched   *workload.Schedule
	tr      *tracer
	barrier int32 // the open fleet.barrier span, -1 before the first Take
	taken   int
	dueMS   map[string]float64
}

func (s *arrivalSource) Take(nowMS float64) []serve.StreamConfig {
	if s.barrier >= 0 {
		s.tr.end(s.barrier)
	}
	s.barrier = s.tr.begin("fleet.barrier")
	id := s.tr.begin("workload.take")
	out := s.sched.Take(nowMS)
	s.tr.end(id)
	for _, cfg := range out {
		s.dueMS[cfg.Name] = s.sched.Arrivals[s.taken].AtMS
		s.taken++
	}
	return out
}

func (s *arrivalSource) Exhausted() bool { return s.sched.Exhausted() }

// checkRecovery requires the run to have exercised fail-stop recovery:
// at least one board death and one restored stream over all reps. It
// is checked per run, not per rep: the crashed board is sometimes empty
// when it dies (about one rep in ten), and then it has nothing to
// restore.
func checkRecovery(reps []*repOut) []string {
	deaths, restores := 0.0, 0.0
	for _, out := range reps {
		deaths += out.counts["ckpt.board_deaths"]
		restores += out.counts["ckpt.recoveries"]
	}
	if deaths < 1 || restores < 1 {
		return []string{fmt.Sprintf("expected a board death and a restore, got %g deaths and %g restores",
			deaths, restores)}
	}
	return nil
}

// fleetRep runs one rep of fleet_churn: open-loop arrivals on the fleet's
// virtual clock over 16 boards, with one board crashing mid-flash and
// another blacking out.
func (r *runner) fleetRep(rep int, tr *tracer) (*repOut, error) {
	sc := r.sc
	sch, err := workload.Generate(workload.Config{
		Seed:      r.o.seed + int64(rep),
		HorizonMS: sc.horizonMS,
		Processes: []workload.Process{
			workload.Constant{PerSec: 3},
			workload.Flash{AtMS: sc.flashAtMS, DurationMS: sc.flashMS, PerSec: 12},
		},
		Tenants:   8,
		MinFrames: sc.minFrames, MaxFrames: sc.maxFrames,
		TailAlpha: 1.3,
	})
	if err != nil {
		return nil, err
	}
	boards := make([]fleet.BoardConfig, sc.boards)
	for i := range boards {
		boards[i].Name = fmt.Sprintf("b%02d", i)
	}
	boards[sc.crashBoard].Faults = &fault.Config{CrashRound: sc.crashRound}
	boards[sc.blackoutBoard].Faults = &fault.Config{BlackoutRound: sc.blackoutRound, BlackoutRounds: 4}
	src := &arrivalSource{sched: sch, tr: tr, barrier: -1, dueMS: map[string]float64{}}
	opts := fleet.Options{
		Models:       r.b.models,
		Boards:       boards,
		Source:       src,
		Admission:    serve.AdmissionWFQ,
		ClassWeights: workload.Weights(tiers),
		Preempt:      true,
		RiskQuantile: 0.95,
		Observer:     obs.New(),
	}

	out := &repOut{counts: map[string]float64{}}
	win := openWindow()
	id := tr.begin("fleet.new")
	fl, err := fleet.New(opts)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	rpt := fl.Run()
	if src.barrier >= 0 {
		tr.rename(src.barrier, "fleet.report")
		tr.end(src.barrier)
	}
	var cw countWriter
	id = tr.begin("obs.write_trace")
	err = rpt.WriteTrace(&cw)
	if err == nil {
		err = rpt.WriteFleetTrace(&cw)
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	win.close(out)

	placedAt := map[int]int{}
	clones := 1 // the fleet's own scoring clone
	for _, e := range rpt.FleetEvents() {
		switch e.Kind {
		case "place":
			if _, ok := placedAt[e.Stream]; !ok {
				placedAt[e.Stream] = e.Barrier
			}
			clones++
		case "restore":
			clones++
		}
	}
	out.tries = rpt.Arrivals
	for _, a := range sch.Arrivals {
		out.offeredFrames += a.Frames
		if a.Tier.Name == "gold" {
			out.goldFrames += a.Frames
		}
	}
	served := 0
	for i := range rpt.Streams {
		s := &rpt.Streams[i]
		wait := -1.0
		if b, ok := placedAt[s.ID]; ok && !s.Recovered {
			wait = float64(b)*fleet.DefaultTickMS - src.dueMS[s.Name] +
				float64(s.WaitRounds)*serve.DefaultRoundMS
		}
		o := servedOutcome(s, wait)
		out.outcomes = append(out.outcomes, o)
		out.frames += s.Frames
		if o.served {
			served++
		}
		addBreakdown(out.counts, s)
	}
	out.failed = out.tries - served

	for _, c := range rpt.Classes {
		if got := c.Completed + c.Rejected + c.Retired + c.Recovered; got != rpt.ArrivalsByClass[c.Class] {
			out.problem("tier %s: %d arrivals but %d completed+rejected+retired+recovered",
				c.Class, rpt.ArrivalsByClass[c.Class], got)
		}
	}
	rounds := 0
	for _, b := range rpt.Boards {
		rounds += b.Rounds
	}
	decisions := rpt.Decisions()
	if cal := obs.RiskCalibration(decisions); cal != nil {
		cov, n := cal.Overall()
		out.counts["glm.covered"] = cov * float64(n)
		out.counts["glm.samples"] = float64(n)
	}
	out.counts["sched.clones"] = float64(clones)
	out.counts["workload.arrivals"] = float64(rpt.Arrivals)
	out.counts["fleet.placed"] = float64(rpt.Placed)
	out.counts["fleet.migrations"] = float64(rpt.Migrations)
	out.counts["fleet.barriers"] = float64(rpt.Barriers)
	out.counts["ckpt.board_deaths"] = float64(rpt.BoardDeaths)
	out.counts["ckpt.recoveries"] = float64(rpt.Recoveries)
	out.counts["ckpt.replayed_gofs"] = float64(rpt.ReplayedGoFs)
	out.counts["serve.rounds"] = float64(rounds)
	out.counts["serve.preemptions"] = float64(rpt.Preemptions)
	out.counts["serve.quarantined"] = float64(rpt.Quarantined)
	out.counts["obs.bytes"] = float64(cw.n)
	out.counts["obs.decisions"] = float64(len(decisions))
	return out, nil
}
