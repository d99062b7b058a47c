package fleet

import (
	"fmt"
	"sort"

	"litereconfig/internal/ckpt"
	"litereconfig/internal/obs"
	"litereconfig/internal/serve"
)

// This file is the fleet's crash-recovery layer: a capture pass that
// serializes per-stream recovery state into the fleet-held checkpoint
// store at GoF-aligned barriers, a virtual-time failure detector fed by
// barrier heartbeats (no wall-clock anywhere), and the recovery planner
// that — once a board is declared dead — fences it and restores every
// checkpointed stream onto the surviving boards through the placement
// scorer. All of it runs single-threaded at the barrier; none of it
// exists on a fault-free fleet (f.det == nil), so those runs and their
// traces are untouched.

// captureCheckpoints runs the barrier-side capture pass over every
// responsive board: a full sweep every CheckpointInterval barriers, and
// between sweeps a catch-up Put for streams with no stored checkpoint
// yet — a stream placed at barrier B is checkpointed at barrier B,
// before its board's earliest possible crash. Boards inside a blackout
// or already crashed are skipped: their frozen state is no newer than
// the checkpoint the store already holds. The same pass refreshes the
// per-stream GoF watermark (the replay-accounting baseline) and mirrors
// newly committed adapter model versions so restores can warm-start.
func (f *Fleet) captureCheckpoints() {
	if f.det == nil || f.ckInterval <= 0 {
		return
	}
	sweep := f.barrier%f.ckInterval == 0
	round := f.barrier + 1
	for _, b := range f.boards {
		if b.crashed {
			continue
		}
		if fc := b.opts.Faults; fc != nil {
			if start, end := fc.BlackoutWindow(); start > 0 && round >= start && round < end {
				continue
			}
		}
		for _, ck := range b.srv.Checkpoints() {
			f.lastGoFs[ck.ID] = ck.GoFs
			if sweep || !f.store.Has(ck.ID) {
				f.store.Put(b.name, f.barrier, ck)
			}
		}
		if reg := b.srv.AdaptRegistry(); reg != nil {
			for _, v := range reg.Versions() {
				if !f.mirrored[v.Label] {
					f.mirrored[v.Label] = true
					f.store.MirrorModel(v.Label, reg.Get(v.Label))
				}
			}
		}
	}
}

// observeFailures advances the failure detector by one barrier with the
// heartbeat set stepBoards collected and acts on its transitions:
// suspects and probes are traced, a recovered board (blackout ended)
// renews its lease, and a dead board is fenced and its streams
// restored. Transitions arrive in board-name order, so fixed-seed runs
// trace and recover identically.
func (f *Fleet) observeFailures() {
	if f.det == nil {
		return
	}
	for _, tr := range f.det.Observe(f.barrier, f.beats) {
		b := f.boardByName(tr.Board)
		switch tr.Kind {
		case "suspect":
			f.event(obs.FleetEvent{Kind: "board", From: b.name,
				Reason: "lease expired: suspect, probing"})
		case "probe":
			f.event(obs.FleetEvent{Kind: "board", From: b.name,
				Reason: fmt.Sprintf("lease probe %d: still silent", tr.Attempt)})
		case "recovered":
			f.event(obs.FleetEvent{Kind: "board", From: b.name,
				Reason: "lease renewed: blackout ended"})
		case "dead":
			reason := fmt.Sprintf("lease expired: dead after %d probe(s)", tr.Attempt)
			if fc := b.opts.Faults; fc != nil && fc.CrashRound > 0 && f.barrier+1 >= fc.CrashRound {
				reason = fmt.Sprintf("fail-stop crash at round %d, %s", fc.CrashRound, reason)
			}
			f.declareDead(b, reason)
		}
	}
}

// declareDead handles a board the detector gave up on: the board is
// fenced (killed even if a late blackout return would have arrived —
// once the fleet acts on its death, a comeback would be split-brain),
// quarantined out of placement, and its tracked streams — whose
// in-memory state died with it — are dropped from the live set and
// restored from the fleet-held checkpoints onto surviving boards, in
// stream-id order. A stream with no checkpoint (checkpointing disabled)
// is retired; a stream no survivor can take re-enters the fleet
// admission queue and is restored when capacity returns.
func (f *Fleet) declareDead(b *board, reason string) {
	b.srv.Kill()
	b.crashed = true
	b.quarantined = true
	f.deaths++
	f.met.boardDeaths.Inc()
	f.event(obs.FleetEvent{Kind: "crash", From: b.name, Reason: reason})

	// Prune the board's trackers from the live set — their in-memory
	// state died with the board — and recover each from its fleet-held
	// checkpoint, in stream-id order. A stream with no checkpoint
	// (checkpointing disabled) is retired rowlessly so per-class
	// conservation still balances.
	var still, lost []*tracked
	for _, t := range f.live {
		if t.board != b || t.handle.Result() != nil {
			still = append(still, t)
			continue
		}
		lost = append(lost, t)
	}
	f.live = still
	sort.Slice(lost, func(i, j int) bool { return lost[i].id < lost[j].id })

	for _, t := range lost {
		e, ok := f.store.Get(t.id)
		if !ok {
			class := serve.ClassOf(t.cfg)
			f.retired++
			f.met.retired.Inc()
			if f.retByClass == nil {
				f.retByClass = map[string]int{}
			}
			f.retByClass[class]++
			f.event(obs.FleetEvent{Kind: "retire", Stream: t.id, Name: t.cfg.Name,
				From: b.name, Tier: class, Tenant: t.cfg.Tenant,
				Reason: "lost in board crash: no checkpoint"})
			continue
		}
		if f.tryRestore(e, t.prof) {
			continue
		}
		f.requeueCheckpoint(e, t.prof, "no board with capacity after crash")
	}
}

// requeueCheckpoint parks an unrestorable checkpoint in the fleet
// admission queue; placeQueued retries the restore each barrier until a
// survivor has capacity. Re-entrants bypass the fleet queue limit and
// are not re-counted as arrivals.
func (f *Fleet) requeueCheckpoint(e ckpt.Entry, prof []branchEst, why string) {
	ec := e
	f.mu.Lock()
	f.queue = append(f.queue, &waiting{id: e.Ck.ID, cfg: e.Ck.Cfg, prof: prof, ck: &ec})
	f.mu.Unlock()
	f.event(obs.FleetEvent{Kind: "requeue", Stream: e.Ck.ID, Name: e.Ck.Cfg.Name,
		From: e.Board, Tier: serve.ClassOf(e.Ck.Cfg), Tenant: e.Ck.Cfg.Tenant,
		Reason: why})
}

// tryRestore places one checkpointed stream of a dead board onto the
// best surviving board (scored exactly like a fresh placement) and
// fast-forwards it there: the restored incarnation replays the GoFs
// executed since the checkpoint — at most one sweep interval's worth —
// warm-starting from its adapted champion model when the fleet's
// registry mirror has it, and re-enters WFQ at the destination's
// current virtual time. Reports false when no survivor can take the
// stream right now.
func (f *Fleet) tryRestore(e ckpt.Entry, prof []branchEst) bool {
	dest, sc := f.bestBoard(e.Ck.Cfg, prof, nil, false)
	if dest == nil {
		return false
	}
	h, err := dest.srv.Restore(e.Ck, f.store.Model(e.Ck.AdaptVersion))
	if err != nil {
		return false
	}
	f.live = append(f.live, &tracked{
		id: e.Ck.ID, handle: h, board: dest, cfg: e.Ck.Cfg, prof: prof,
		migrations: e.Ck.Migrations,
	})
	f.store.Rehome(e.Ck.ID, dest.name)
	replayed := f.lastGoFs[e.Ck.ID] - e.Ck.GoFs
	if replayed < 0 {
		replayed = 0
	}
	f.recoveries++
	f.replayed += replayed
	f.met.recoveries.Inc()
	f.met.replayed.Add(float64(replayed))
	f.event(obs.FleetEvent{Kind: "restore", Stream: e.Ck.ID, Name: e.Ck.Cfg.Name,
		From: e.Board, To: dest.name, Tier: serve.ClassOf(e.Ck.Cfg),
		Tenant: e.Ck.Cfg.Tenant, Replayed: replayed,
		Reason:  fmt.Sprintf("checkpoint @barrier %d", e.Barrier),
		PredAcc: sc.acc, PredMS: sc.lat})
	return true
}

// unresponsive reports whether the board missed its most recent
// heartbeat — crashed, inside a blackout, or silently wedged. Such a
// board is no placement, migration or restore target even before its
// lease formally expires. Always false on a fault-free fleet, so
// placement there is exactly as before.
func (f *Fleet) unresponsive(b *board) bool {
	if f.det == nil {
		return false
	}
	return b.crashed || f.det.LastBeat(b.name) < f.barrier
}

// boardByName resolves a detector transition back to its board.
func (f *Fleet) boardByName(name string) *board {
	for _, b := range f.boards {
		if b.name == name {
			return b
		}
	}
	return nil
}
