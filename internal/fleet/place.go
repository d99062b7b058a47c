package fleet

import (
	"math"
	"sort"

	"litereconfig/internal/feat"
	"litereconfig/internal/glm"
	"litereconfig/internal/mbek"
	"litereconfig/internal/obs"
	"litereconfig/internal/serve"
	"litereconfig/internal/simlat"
)

// estOcc resolves a stream config's admission-time occupancy estimate
// the way the serving engine does.
func estOcc(cfg serve.StreamConfig) float64 {
	switch {
	case cfg.EstOccupancy == 0:
		return serve.DefaultEstOccupancy
	case cfg.EstOccupancy < 0:
		return 0
	case cfg.EstOccupancy > 1:
		return 1
	}
	return cfg.EstOccupancy
}

// score is one board's placement score for one stream: the predicted
// accuracy and per-frame latency of the board's best SLO-feasible
// branch under the contention the stream would see there. When no
// branch is feasible the score falls back to the cheapest branch
// (feasible=false) so a best-effort placement is still ranked.
// Under risk-aware placement (Fleet.risk != nil) attain is the chosen
// branch's SLO-attainment probability — P(lognormal latency ≤ planning
// budget) — and outranks the accuracy comparison; it stays zero under
// mean placement so legacy ranking is untouched.
type score struct {
	feasible bool
	acc      float64 // predicted A(b, f_L) of the chosen branch
	lat      float64 // predicted per-frame latency of the chosen branch
	occ      float64 // board's aggregate occupancy at scoring time
	attain   float64 // P(SLO attained) of the chosen branch; 0 = mean placement
}

// better ranks scores: feasible beats infeasible, then (risk-aware
// placement only) higher SLO-attainment probability, then higher
// accuracy, then lower latency, then lower board occupancy. Ties beyond
// that are broken by board index at the call site, so placement is
// deterministic.
func (s score) better(o score) bool {
	if s.feasible != o.feasible {
		return s.feasible
	}
	if s.attain != o.attain {
		return s.attain > o.attain
	}
	if s.acc != o.acc {
		return s.acc > o.acc
	}
	if s.lat != o.lat {
		return s.lat < o.lat
	}
	return s.occ < o.occ
}

// branchEst is one branch's board-independent placement inputs for a
// stream: the predicted detector and tracker shares of its per-frame
// latency (TX2 units, no contention) and its predicted A(b, f_L).
type branchEst struct {
	det, trk, acc float64
}

// branchRisk is one branch's fleet-wide risk-aware placement terms,
// computed once in New: its QuantileFactor at the configured quantile,
// its LatLogStd σ, and the two cut factors that bound the exact tails
// of glm.AttainProb(ln lat, σ, ln budget) = ½·erfc(−z/√2), with
// z = (ln budget − ln lat)/σ.
//
// winCut = exp(−8.6σ): lat ≤ budget·winCut puts z at 8.6 less rounding,
// so −z/√2 < −6, where math.Erfc returns exactly 2 (its "x < −6" path)
// and the attainment is exactly 1.
//
// loseCut = exp(−8σ): lat ≥ budget·loseCut puts z at 8 plus rounding,
// where the true 1 − Φ(z) is at least ≈6.2e-16. math.Erfc computes
// 2 − r/x there with one rounding, which lands at least five doubles
// below 2 (their spacing is 2.2e-16), so the computed attainment is
// below 1.
//
// The rounding in ln, exp, the products and the division is a few
// ulps of numbers below 745 in magnitude, at most ≈1e-12 in z·σ, while
// each cut keeps a margin of at least 0.1σ (8.6 against 6√2 ≈ 8.485,
// and 8 against the ≈8.29 where the computed value first rounds to 1).
// That holds for σ > minTailStd. Above maxTailStd, or with no σ at
// all, the cuts are 0 and +Inf and neither shortcut fires; bounding σ
// keeps both cuts, and with a budget of at least minTailBudget both
// products budget·cut, normal floats.
type branchRisk struct {
	quantile, logStd float64
	winCut, loseCut  float64
}

const (
	minTailStd    = 1e-6
	maxTailStd    = 10
	minTailBudget = 1e-250
)

func newBranchRisk(quantile, logStd float64) branchRisk {
	// A zero win cut and an infinite lose cut never fire: a scored
	// branch has 0 < lat ≤ budget, and the budget is finite.
	r := branchRisk{quantile: quantile, logStd: logStd, winCut: 0, loseCut: math.Inf(1)}
	if logStd > minTailStd && logStd <= maxTailStd {
		r.winCut, r.loseCut = math.Exp(-8.6*logStd), math.Exp(-8*logStd)
	}
	return r
}

// profile prices every branch once for the light features of a
// stream's first frame. Those features are fixed for the stream's life
// and the fleet's scoring models never change during a run, so the
// profile serves every later placement, migration and restore score.
// The light vector and the accuracy row live in fleet-owned scratch, so
// the profile itself is the one allocation; both callers (Submit before
// Run, the barrier's intake during it) hold the fleet mutex.
func (f *Fleet) profile(cfg serve.StreamConfig) []branchEst {
	f.scrLight = feat.LightVectorInto(f.scrLight, cfg.Video, cfg.Video.Frames[0])
	f.scrAcc = f.models.PredictAccuracyLightInto(f.scrAcc, f.scrLight)
	light, accs := f.scrLight, f.scrAcc
	prof := make([]branchEst, len(f.models.Branches))
	for bi := range prof {
		det, trk := f.models.PredictLatency(bi, light)
		prof[bi] = branchEst{det: det, trk: trk, acc: accs[bi]}
	}
	return prof
}

// scoreBoard prices the stream on the board under its current load:
// the stream's coupled contention level there would be
// clamp(floor + alpha * totalOcc/slots) — mirroring contend.Coupled —
// and each branch's per-frame latency is the profiled detector share
// scaled by the board's device and that contention, plus the tracker
// share scaled by the device's CPU factor (Eq. 2 priced for a remote
// board). The best feasible branch maximizes predicted accuracy under
// SLO * SafetyFactor; under risk-aware placement feasibility is judged
// at the configured latency quantile and the branch maximizing the
// SLO-attainment probability wins instead.
// selfOcc is the stream's own measured occupancy when it already lives
// on the board (its own load is not foreign to it); zero for placement
// candidates. Only board-dependent arithmetic runs here; it allocates
// nothing.
func (f *Fleet) scoreBoard(b *board, slo, floor float64, prof []branchEst, selfOcc float64) score {
	act, qd := b.srv.Occupancy()
	total := act + qd
	foreign := (total - selfOcc) / float64(b.opts.GPUSlots)
	g := floor + b.opts.Coupling*foreign
	if g < 0 {
		g = 0
	}
	if g > 0.99 {
		g = 0.99
	}
	gpu := b.opts.Device.Factor(simlat.GPU)
	cpu := b.opts.Device.Factor(simlat.CPU)
	mult := simlat.ContentionMultiplier(g)
	budget := slo * f.opts.SafetyFactor
	return f.scoreBranches(prof, gpu, mult, cpu, budget, total)
}

// scoreBranches picks the stream's best branch on a board with GPU
// factor gpu, contention multiplier mult and CPU factor cpu; occ is the
// board's aggregate occupancy, carried into the score for tie-breaking.
//
// Under risk-aware placement two exact shortcuts skip the attainment
// probability where its value is already known (see branchRisk): a
// branch at or below budget·winCut attains with probability exactly 1,
// and once the incumbent attains with probability exactly 1, a branch
// at or above budget·loseCut attains with probability below 1 and
// cannot win. Every other feasible branch pays math.Log and
// glm.AttainProb, so the score is bit-identical to the plain scan.
func (f *Fleet) scoreBranches(prof []branchEst, gpu, mult, cpu, budget, occ float64) score {
	logBudget := math.Log(budget)
	sc := score{occ: occ, acc: -1}
	fallbackLat, fallbackAcc := 0.0, 0.0
	haveFallback := false
	riskOn := f.risk != nil
	// The cuts' exactness argument needs budget·cut to be a normal
	// float, which a finite budget of at least minTailBudget guarantees.
	tails := budget >= minTailBudget && budget <= math.MaxFloat64
	for bi := range prof {
		p := &prof[bi]
		lat := p.det*gpu*mult + p.trk*cpu
		// Under risk-aware placement a branch must fit the budget at the
		// configured latency quantile, not at the mean — the same
		// admission criterion the stream's own scheduler will apply once
		// placed, so placement never picks a board the scheduler would
		// immediately degrade on.
		planLat := lat
		if riskOn {
			planLat = lat * f.risk[bi].quantile
		}
		if planLat <= budget {
			attain := 0.0
			if riskOn && lat > 0 {
				r := &f.risk[bi]
				switch {
				case tails && lat <= budget*r.winCut:
					attain = 1
				case tails && sc.attain == 1 && lat >= budget*r.loseCut:
					continue
				default:
					attain = glm.AttainProb(math.Log(lat), r.logStd, logBudget)
				}
			}
			if !sc.feasible || attain > sc.attain ||
				(attain == sc.attain && p.acc > sc.acc) ||
				(attain == sc.attain && p.acc == sc.acc && lat < sc.lat) {
				sc.feasible, sc.acc, sc.lat, sc.attain = true, p.acc, lat, attain
			}
		} else if !haveFallback || lat < fallbackLat {
			haveFallback, fallbackLat, fallbackAcc = true, lat, p.acc
		}
	}
	if !sc.feasible {
		sc.acc, sc.lat = fallbackAcc, fallbackLat
	}
	return sc
}

// hasCapacity reports whether the board can take one more stream with
// the given occupancy estimate: aggregate occupancy within the board's
// admission threshold and a free queue slot.
func (b *board) hasCapacity(est float64) bool {
	act, qd := b.srv.Occupancy()
	_, queued, _ := b.srv.Counts()
	return act+qd+est <= b.opts.MaxOccupancy && queued < b.opts.QueueLimit
}

// bestBoard picks the placement target for a stream: among healthy
// boards with capacity (excluding `exclude`, the board a migrating
// stream is leaving), the best score wins; score ties break by board
// index. It returns nil when no board has capacity. requireFeasible
// additionally demands an SLO-feasible branch — SLO-driven migrations
// use it, since moving to another infeasible board just pays the
// hand-off for nothing.
func (f *Fleet) bestBoard(cfg serve.StreamConfig, prof []branchEst,
	exclude *board, requireFeasible bool) (*board, score) {

	est := estOcc(cfg)
	var best *board
	var bestSc score
	for _, b := range f.boards {
		if b.quarantined || b == exclude || f.unresponsive(b) || !b.hasCapacity(est) {
			continue
		}
		sc := f.scoreBoard(b, cfg.SLO, cfg.BaseContention, prof, 0)
		if requireFeasible && !sc.feasible {
			continue
		}
		if best == nil || sc.better(bestSc) {
			best, bestSc = b, sc
		}
	}
	return best, bestSc
}

// bestBoardQueue is the push-through variant of bestBoard: it only
// demands a free admission-queue slot, not spare occupancy. Under
// WFQ with preemption a high-tier arrival is handed to the best such
// board, whose own queue-head preemption evicts best-effort streams to
// make room — waiting in the fleet queue instead would hide the arrival
// from the board's admission controller.
func (f *Fleet) bestBoardQueue(cfg serve.StreamConfig, prof []branchEst) (*board, score) {
	var best *board
	var bestSc score
	for _, b := range f.boards {
		if b.quarantined || f.unresponsive(b) {
			continue
		}
		if _, queued, _ := b.srv.Counts(); queued >= b.opts.QueueLimit {
			continue
		}
		sc := f.scoreBoard(b, cfg.SLO, cfg.BaseContention, prof, 0)
		if best == nil || sc.better(bestSc) {
			best, bestSc = b, sc
		}
	}
	return best, bestSc
}

// weightOf resolves a stream's WFQ class weight from the fleet-wide
// ClassWeights (default 1).
func (f *Fleet) weightOf(cfg serve.StreamConfig) int {
	if w := f.opts.ClassWeights[serve.ClassOf(cfg)]; w > 0 {
		return w
	}
	return 1
}

// placeQueued walks the fleet queue and places every stream that some
// board can take. Under FIFO admission the walk is arrival order; under
// WFQ it is tier order (highest class weight first, arrival order
// within a tier), so a gold arrival never waits on board capacity
// behind best-effort backlog. Skipping is allowed — a heavy stream
// waiting for capacity does not block a light one behind it — but order
// is deterministic, so fixed-seed runs place identically.
func (f *Fleet) placeQueued() {
	f.mu.Lock()
	queue := append([]*waiting(nil), f.queue...)
	f.mu.Unlock()

	if f.opts.Admission == serve.AdmissionWFQ {
		sort.SliceStable(queue, func(i, j int) bool {
			wi, wj := f.weightOf(queue[i].cfg), f.weightOf(queue[j].cfg)
			if wi != wj {
				return wi > wj
			}
			return queue[i].id < queue[j].id
		})
	}

	var still []*waiting
	for _, w := range queue {
		// Re-entrants first: an evacuated live stream re-attaches (its
		// pipeline state travels with it), a dead board's checkpoint is
		// restored. Both were admitted long ago — placing them is not a
		// new arrival, and failing is not a rejection; they just wait.
		if w.det != nil || w.ck != nil {
			if !f.placeReentrant(w) {
				w.waits++
				still = append(still, w)
			}
			continue
		}
		b, sc := f.bestBoard(w.cfg, w.prof, nil, false)
		pushed := false
		if b == nil && f.opts.Preempt && f.opts.Admission == serve.AdmissionWFQ &&
			f.weightOf(w.cfg) > 1 {
			b, sc = f.bestBoardQueue(w.cfg, w.prof)
			pushed = b != nil
		}
		if b == nil {
			w.waits++
			still = append(still, w)
			continue
		}
		h, err := b.srv.Prepare(w.id, w.cfg)
		if err != nil {
			// The board refused after scoring said it fit (raced with its
			// own round). Keep the stream queued; capacity returns.
			w.waits++
			still = append(still, w)
			continue
		}
		f.live = append(f.live, &tracked{
			id: w.id, handle: h, board: b, cfg: w.cfg, prof: w.prof,
		})
		f.placed++
		f.met.placements.Inc()
		reason := "feasible"
		if !sc.feasible {
			reason = "best effort: no feasible branch on any board"
		}
		if pushed {
			reason = "pushed through: board-side preemption to make room"
		}
		f.event(obs.FleetEvent{Kind: "place", Stream: w.id, Name: w.cfg.Name,
			To: b.name, Tier: serve.ClassOf(w.cfg), Tenant: w.cfg.Tenant,
			Reason: reason, PredAcc: sc.acc, PredMS: sc.lat})
	}

	// The retained queue keeps arrival order regardless of the walk
	// order, so tier priority is re-derived fresh each barrier.
	sort.SliceStable(still, func(i, j int) bool { return still[i].id < still[j].id })
	f.mu.Lock()
	f.queue = still
	f.mu.Unlock()
}

// placeReentrant places one already-admitted queue re-entrant: an
// evacuee (det) is re-attached to the best board with capacity, paying
// the usual migration cost; an unrestorable checkpoint (ck) is
// restored. Reports false when no board can take it yet.
func (f *Fleet) placeReentrant(w *waiting) bool {
	if w.ck != nil {
		return f.tryRestore(*w.ck, w.prof)
	}
	b, sc := f.bestBoard(w.cfg, w.prof, nil, false)
	if b == nil {
		return false
	}
	cost := f.migrationCost(w.det)
	h, err := b.srv.Attach(w.det, cost)
	if err != nil {
		return false // board refused; the Detached is still ours to retry
	}
	f.live = append(f.live, &tracked{
		id: w.id, handle: h, board: b, cfg: w.cfg, prof: w.prof,
	})
	f.migrs++
	f.met.migrations.Inc()
	if f.store != nil {
		f.store.Rehome(w.id, b.name)
	}
	f.event(obs.FleetEvent{Kind: "migrate", Stream: w.id, Name: w.cfg.Name,
		To: b.name, Tier: serve.ClassOf(w.cfg), Tenant: w.cfg.Tenant,
		Reason: "re-placed after evacuation", CostMS: cost,
		PredAcc: sc.acc, PredMS: sc.lat})
	return true
}

// migrationCost prices the hand-off of a detached stream: one model
// clone on the destination plus warming the destination detector up to
// the stream's current branch, modeled as a switch from the cheapest
// branch (cold) to the current one — the fleet analogue of the paper's
// C(b0, b). A stream that never started (migrated out of a queue) only
// pays the clone.
func (f *Fleet) migrationCost(d *serve.Detached) float64 {
	cost := f.opts.CloneMS
	cur := d.Branch()
	if cur != (mbek.Branch{}) {
		cost += mbek.SwitchCostMS(mbek.MinCostBranch(f.models.Branches), cur)
	}
	return cost
}

// migrate moves a live stream to the destination board, charging the
// hand-off cost. It updates the tracked record and the fleet trace.
func (f *Fleet) migrate(t *tracked, dest *board, sc score, reason string) bool {
	from := t.board
	d, err := from.srv.Detach(t.handle)
	if err != nil {
		return false // retired by its board this very barrier
	}
	cost := f.migrationCost(d)
	h, err := dest.srv.Attach(d, cost)
	if err != nil {
		// Destination refused (draining — cannot happen mid-run, but be
		// safe): a failed Attach leaves the Detached intact, so retiring
		// it writes a proper fleet-retired row on the origin board.
		d.Retire("fleet: attach failed: " + err.Error())
		f.retired++
		f.met.retired.Inc()
		return false
	}
	t.handle, t.board = h, dest
	t.infeasible = 0
	t.migrations++
	f.migrs++
	f.met.migrations.Inc()
	if f.store != nil {
		f.store.Rehome(t.id, dest.name)
	}
	f.event(obs.FleetEvent{Kind: "migrate", Stream: t.id, Name: t.cfg.Name,
		From: from.name, To: dest.name, Reason: reason, CostMS: cost,
		PredAcc: sc.acc, PredMS: sc.lat})
	return true
}

// evacuate moves every live stream off a quarantined board: each goes
// to the best-scoring healthy board with capacity (feasible or not —
// anywhere beats a dead board). A stream no board can take right now is
// NOT retired: it is detached — pipeline, clock and tracker state
// intact — and re-enters the fleet admission queue, to be re-attached
// by placeQueued once capacity returns. Only the end of the run, with
// no capacity ever coming back, retires it.
func (f *Fleet) evacuate(b *board) {
	var still []*tracked
	for _, t := range f.live {
		if t.board != b || t.handle.Result() != nil {
			still = append(still, t)
			continue
		}
		dest, sc := f.bestBoard(t.cfg, t.prof, b, false)
		if dest != nil {
			f.migrate(t, dest, sc, "board quarantined")
			still = append(still, t)
			continue
		}
		d, err := b.srv.Detach(t.handle)
		if err != nil {
			// The board retired the stream this very barrier; its row
			// already exists, so it is no longer ours to move.
			still = append(still, t)
			continue
		}
		f.mu.Lock()
		f.queue = append(f.queue, &waiting{id: t.id, cfg: t.cfg, prof: t.prof, det: d})
		f.mu.Unlock()
		f.event(obs.FleetEvent{Kind: "requeue", Stream: t.id,
			Name: t.cfg.Name, From: b.name, Tier: serve.ClassOf(t.cfg),
			Tenant: t.cfg.Tenant,
			Reason: "evacuated: no board with capacity, waiting in fleet queue"})
	}
	f.live = still
}

// checkMigrations runs the SLO-feasibility check for every live stream:
// a stream whose board-local contention leaves no branch within its
// planning budget for Hysteresis consecutive barriers is moved to a
// board with a feasible branch, if one exists and the stream has
// hand-offs left.
func (f *Fleet) checkMigrations() {
	occs := f.occs
	clear(occs)
	for _, b := range f.boards {
		b.srv.Occupancies(occs)
	}
	for _, t := range f.live {
		if t.handle.Result() != nil || t.board.quarantined || t.board.crashed {
			continue
		}
		sc := f.scoreBoard(t.board, t.cfg.SLO, t.cfg.BaseContention, t.prof, occs[t.id])
		if sc.feasible {
			t.infeasible = 0
			continue
		}
		t.infeasible++
		if t.infeasible < f.opts.Hysteresis || t.migrations >= f.opts.MaxMigrations {
			continue
		}
		dest, dsc := f.bestBoard(t.cfg, t.prof, t.board, true)
		if dest == nil {
			continue // nowhere feasible; stay and let the scheduler degrade
		}
		f.migrate(t, dest, dsc, "SLO infeasible under board contention")
	}
}
