package core

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/rebalance"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Mid-solve vertex migration (docs/PERFORMANCE.md, "Dynamic load
// rebalancing"). The paper partitions once, statically; Louvain convergence
// is skewed, so the balance point drifts during the solve. When the
// per-iteration work ratio across ranks stays above Options.RebalanceRatio,
// the ranks move owned low-degree vertices from hot ranks to cold ones
// between iterations.
//
// Everything here is driven by replicated state: the fused per-iteration
// reduction hands every rank the full work vector, the policy's Plan is a
// pure function of (work, seed), and the migrant announcements are
// allgathered — so all ranks execute the identical migration schedule with
// no agreement collective, and any fixed (policy, seed) pair is
// bit-identical across worker counts and transports.
//
// Invariants the protocol preserves:
//   - Only vertices migrate. Community c is owned by rank c mod p forever;
//     the authoritative Σtot/size tables, the delta routing, and the
//     community-info fetch are untouched.
//   - Hubs never migrate: their state is replicated everywhere already, and
//     moving a hub would change nothing but bookkeeping.
//   - A donor keeps each migrated vertex as a ghost and stays subscribed to
//     it, so any rank still routing a label query to the original owner
//     reads a live value. Subscriptions are never cancelled — a stale
//     subscriber costs one redundant ghost update per label change, never
//     correctness.

// ownerOf returns the rank currently owning vertex v. Before the first
// migration the directory is nil and ownership is the static v mod p of the
// partitioner; afterwards the replicated directory is authoritative.
func (s *stage) ownerOf(v int) int {
	if s.owner != nil {
		return int(s.owner[v])
	}
	return v % s.p
}

// ensureMigratable prepares the stage for ownership mutation: it detaches
// the rank's Subgraph from the driver-shared Layout (CloneForMigration) and
// materializes the ownership directory. Called on every rank of the world
// on the first migration event of the stage.
func (s *stage) ensureMigratable() {
	if s.owner != nil {
		return
	}
	s.owner = make([]int32, s.n)
	for v := range s.owner {
		s.owner[v] = int32(v % s.p)
	}
	s.sg = s.sg.CloneForMigration()
}

// workStats returns the max and sum of the replicated work vector.
func (s *stage) workStats() (max, sum int64) {
	for _, w := range s.workVec {
		sum += w
		if w > max {
			max = w
		}
	}
	return max, sum
}

// maybeRebalance runs at the top of each clustering iteration (from the
// second on) against the previous iteration's replicated work vector. It
// fires a migration when the work ratio max/mean has been at or above
// Options.RebalanceRatio for RebalanceHysteresis consecutive iterations and
// at least RebalanceCooldown iterations have passed since the last event.
// Every input is replicated, so all ranks take the same branch everywhere.
func (s *stage) maybeRebalance(iter int) error {
	max, sum := s.workStats()
	if sum <= 0 {
		return nil
	}
	ratio := float64(max) * float64(s.p) / float64(sum)
	if ratio < s.opt.RebalanceRatio {
		s.reb.over = 0
		return nil
	}
	s.reb.over++
	if s.reb.over < s.opt.RebalanceHysteresis || iter-s.reb.lastIter < s.opt.RebalanceCooldown {
		return nil
	}
	moves := s.pol.Plan(s.workVec, s.opt.RebalanceSeed)
	if len(moves) == 0 {
		// The policy declined (e.g. "none", or nothing to level): re-arm
		// the hysteresis so the trigger is not re-evaluated every iteration.
		s.reb.over = 0
		return nil
	}
	s.reb.over = 0
	s.reb.lastIter = iter
	return s.migrate(iter, moves)
}

// migrantWeight is the work-unit weight of an owned vertex in migration
// planning: the same arcs+constant count the sweep charges per owned vertex,
// so plan units and measured work speak the same currency.
func migrantWeight(adj []partition.Arc) int64 { return int64(len(adj)) + 4 }

// selectMigrants translates this rank's side of the plan into concrete
// vertices: for each move donated by this rank, the heaviest owned vertices
// are taken (weight descending, vertex ID ascending) while they do not
// overshoot the remaining quota by more than 2× — the hot rank's overload is
// usually a handful of heavy vertices, and shipping one slightly-too-big
// vertex still improves the balance. The selection reads only the donor's
// deterministic subgraph state, so it is reproducible across worker counts
// and transports.
func (s *stage) selectMigrants(moves []rebalance.Move) []migrant {
	type cand struct {
		v int
		w int64
	}
	var cands []cand
	for i, v := range s.sg.Owned {
		cands = append(cands, cand{v: v, w: migrantWeight(s.sg.AdjOwned[i])})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w != cands[j].w {
			return cands[i].w > cands[j].w
		}
		return cands[i].v < cands[j].v
	})
	taken := make(map[int]bool)
	var out []migrant
	for _, mv := range moves {
		if mv.From != s.rnk {
			continue
		}
		remaining := mv.Units
		for _, cd := range cands {
			if remaining <= 0 {
				break
			}
			if taken[cd.v] || cd.w >= 2*remaining {
				continue
			}
			taken[cd.v] = true
			out = append(out, migrant{v: cd.v, to: mv.To})
			remaining -= cd.w
		}
	}
	return out
}

// migrant is one planned vertex transfer out of this rank.
type migrant struct {
	v  int
	to int
}

// inboundMigrant is one decoded vertex arrival, buffered so application can
// run in sorted vertex order regardless of frame arrival order.
type inboundMigrant struct {
	v     int
	label int32
	wdeg  float64
	adj   []partition.Arc
	subs  []int
}

// migrate executes one migration event. Four globally ordered rounds:
//
//  1. Announce: every rank allgathers its (vertex, destination) pairs; all
//     ranks update the replicated ownership directory identically.
//  2. Payload: donors ship each migrant's label, weighted degree, adjacency,
//     and subscriber list to its new owner. Receivers buffer, then apply in
//     two phases — first insert every migrant (so co-migrating neighbors
//     see each other), then scan the new adjacency for unknown vertices.
//  3. Subscribe: each unknown neighbor becomes a ghost and a subscription
//     request is routed to its current owner.
//  4. Reply: owners answer with the neighbor's current label.
//
// The traffic runs on its own tag (comm.MigrationExchange) and lands inside
// the iteration's stats window, so the α-β model prices it into the
// iteration's simulated communication time automatically; the decode/apply
// effort is charged as work units the same way.
func (s *stage) migrate(iter int, moves []rebalance.Move) error {
	s.ensureMigratable()
	outgoing := s.selectMigrants(moves)

	// Round 1: announcements. Applied in rank order on every rank, so the
	// directory update is identical everywhere.
	ann := wire.NewBuffer(0)
	ann.PutUvarint(uint64(len(outgoing)))
	for _, m := range outgoing {
		ann.PutVarint(int64(m.v))
		ann.PutVarint(int64(m.to))
	}
	frames, err := comm.Allgather(s.c, ann.Bytes())
	if err != nil {
		return err
	}
	total := 0
	for r := 0; r < s.p; r++ {
		rd := wire.NewReader(frames[r])
		n := int(rd.Uvarint())
		for j := 0; j < n; j++ {
			v := int(rd.Varint())
			to := int(rd.Varint())
			s.owner[v] = int32(to)
		}
		if err := rd.Err(); err != nil {
			return fmt.Errorf("core: rank %d: malformed migration announcement from rank %d: %w", s.rnk, r, err)
		}
		total += n
	}

	// Round 2: payloads. The donor detaches each vertex before encoding and
	// keeps it as a ghost (see the package comment on why that is safe and
	// why subscriptions are never cancelled).
	work := int64(0)
	out := s.sendScratch()
	for _, m := range outgoing {
		wdeg, adj, ok := s.sg.RemoveOwned(m.v)
		if !ok {
			return fmt.Errorf("core: rank %d selected unowned vertex %d for migration", s.rnk, m.v)
		}
		b := s.sendBufs[m.to]
		b.PutVarint(int64(m.v))
		b.PutVarint(int64(s.comm[m.v]))
		b.PutF64(wdeg)
		b.PutUvarint(uint64(len(adj)))
		for _, a := range adj {
			b.PutVarint(int64(a.To))
			b.PutF64(a.W)
		}
		subs := s.sg.Subscribers[m.v]
		b.PutUvarint(uint64(len(subs)))
		for _, r := range subs {
			b.PutVarint(int64(r))
		}
		s.sg.SetSubscribers(m.v, nil)
		s.sg.AddGhost(m.v)
		work += migrantWeight(adj)
	}
	for r := 0; r < s.p; r++ {
		out[r] = s.sendBufs[r].Bytes()
	}
	var arrived []inboundMigrant
	err = comm.MigrationExchange(s.c, out, func(src int, payload []byte) error {
		rd := wire.NewReader(payload)
		for rd.Remaining() > 0 {
			var in inboundMigrant
			in.v = int(rd.Varint())
			in.label = int32(rd.Varint())
			in.wdeg = rd.F64()
			in.adj = make([]partition.Arc, int(rd.Uvarint()))
			for j := range in.adj {
				in.adj[j] = partition.Arc{To: int(rd.Varint()), W: rd.F64()}
			}
			ns := int(rd.Uvarint())
			in.subs = make([]int, 0, ns+1)
			for j := 0; j < ns; j++ {
				in.subs = append(in.subs, int(rd.Varint()))
			}
			// The donor keeps a ghost copy alive, so it joins the
			// subscriber set (SetSubscribers drops this rank if present).
			in.subs = append(in.subs, src)
			arrived = append(arrived, in)
		}
		return rd.Err()
	})
	if err != nil {
		return err
	}
	// Phase 1: insert every migrant. Sorted by vertex ID so the application
	// order is independent of frame arrival order (each vertex arrives from
	// exactly one donor, so the set itself is arrival-independent).
	sort.Slice(arrived, func(i, j int) bool { return arrived[i].v < arrived[j].v })
	for _, in := range arrived {
		s.sg.InsertOwned(in.v, in.wdeg, in.adj)
		s.comm[in.v] = in.label
		s.sg.RemoveGhost(in.v)
		s.sg.SetSubscribers(in.v, in.subs)
		work += migrantWeight(in.adj)
	}
	// Phase 2: adopt unknown neighbors as ghosts. A neighbor that itself
	// migrated here this round was inserted in phase 1, so it is known by
	// now — the two-phase split is what makes co-migration safe.
	reqs := make([][]int, s.p)
	for _, in := range arrived {
		for _, a := range in.adj {
			if s.comm[a.To] != -1 {
				continue
			}
			s.sg.AddGhost(a.To)
			o := s.ownerOf(a.To)
			reqs[o] = append(reqs[o], a.To)
			// Mark as pending so a second arc to the same neighbor does not
			// request twice; the reply round overwrites with the real label.
			s.comm[a.To] = -2
		}
	}

	// Round 3: subscription requests to each new ghost's current owner.
	out = s.sendScratch()
	for r := 0; r < s.p; r++ {
		sort.Ints(reqs[r])
		b := s.sendBufs[r]
		b.PutInts(reqs[r])
		out[r] = b.Bytes()
		work += int64(len(reqs[r]))
	}
	gotReqs := make([][]int, s.p)
	err = comm.MigrationExchange(s.c, out, func(src int, payload []byte) error {
		rd := wire.NewReader(payload)
		gotReqs[src] = rd.Ints()
		return rd.Err()
	})
	if err != nil {
		return err
	}

	// Round 4: subscribe each requester and reply with current labels. The
	// requester's writes are disjoint per source (each ghost was requested
	// from exactly one owner), so streaming application is deterministic.
	out = s.sendScratch()
	for r := 0; r < s.p; r++ {
		b := s.sendBufs[r]
		for _, u := range gotReqs[r] {
			s.sg.Subscribe(u, r)
			b.PutVarint(int64(s.comm[u]))
		}
		out[r] = b.Bytes()
		work += int64(len(gotReqs[r]))
	}
	err = comm.MigrationExchange(s.c, out, func(src int, payload []byte) error {
		rd := wire.NewReader(payload)
		for _, u := range reqs[src] {
			s.comm[u] = int32(rd.Varint())
		}
		return rd.Err()
	})
	if err != nil {
		return err
	}

	// The owned-vertex set changed: rebuild the modularity kernel (its
	// closure snapshots the owned tables and chunk count).
	s.buildQKernel()
	s.addWork(trace.Other, work)
	s.reb.events++
	s.reb.migrated += int64(total)
	if s.rnk == 0 {
		trace.Eventf("rebalance", "iter=%d policy=%s migrants=%d moves=%d", iter, s.pol.Name(), total, len(moves))
	}
	return nil
}
