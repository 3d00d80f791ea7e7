package core

import (
	"sort"

	"repro/internal/partition"
	"repro/internal/trace"
)

// gainEps is the tolerance under which two modularity gains count as equal
// (the tie case the convergence heuristics arbitrate).
const gainEps = 1e-12

// sweep performs one greedy local-moving pass over the rank's owned low
// vertices (applied immediately, Gauss-Seidel within the rank) and computes
// this rank's move proposal for every hub from its local share of hub arcs.
// It returns the hub proposals and the number of owned vertices moved.
//
// The owned-vertex loop is sequential by design: each move updates the
// cached aggregates the next decision reads (the paper's Gauss-Seidel
// semantics). The hub loop reads a state no proposal mutates, so it runs on
// the worker pool in data-sized chunks; props[i] is written by exactly one
// chunk and the per-chunk work counts combine in chunk order, keeping the
// result bit-identical to the serial path.
//
//perf:noalloc
func (s *stage) sweep() ([]hubProposal, int) {
	s.changed = s.changed[:0]
	moved := 0
	acc := s.accs[0]

	work := int64(0)
	for i, u := range s.sg.Owned {
		ku := s.sg.OwnedWDeg[i]
		work += int64(len(s.sg.AdjOwned[i])) + 4
		target, ok := s.bestMove(u, ku, s.sg.AdjOwned[i], acc)
		if !ok {
			continue
		}
		cu := int(s.comm[u])
		s.comm[u] = int32(target)
		s.applyLocalMove(cu, target, ku)
		s.changed = append(s.changed, u)
		moved++
	}

	s.pool.parFor(s.hubChunks, s.hubKernel)
	for c := 0; c < s.hubChunks; c++ {
		work += s.chunkArcs[c]
	}
	s.addWork(trace.FindBest, work)
	return s.props, moved
}

// gainAccumulator gathers w(u→c) per neighboring community for one vertex,
// with O(touched) reset. keys lists the touched communities in touch order.
// cands is the reusable candidate scratch of scanCandidates. One
// accumulator exists per worker, allocated once per stage, so the
// steady-state sweep allocates nothing.
type gainAccumulator struct {
	w     []float64
	seen  []bool
	keys  []int
	cands []int
}

func newGainAccumulator(n int) *gainAccumulator {
	return &gainAccumulator{w: make([]float64, n), seen: make([]bool, n)}
}

//perf:noalloc
func (g *gainAccumulator) reset() {
	for _, c := range g.keys {
		g.w[c] = 0
		g.seen[c] = false
	}
	g.keys = g.keys[:0]
}

//perf:noalloc
func (g *gainAccumulator) add(c int, w float64) {
	if !g.seen[c] {
		g.seen[c] = true
		g.keys = append(g.keys, c)
	}
	g.w[c] += w
}

// scanCandidates accumulates the arc weights of vertex u (current community
// cu, weighted degree k, adjacency adj) into acc and collects the max-gain
// candidate communities. It returns the gain of staying in cu, the best
// gain seen, and the equal-best candidate set in ascending label order
// (aliasing acc's scratch, valid until the next call on the same acc).
// This is the one place the gain and tie logic lives; bestMove and
// hubProposal both arbitrate its output.
//
// The result is defined by an ε-band ratchet over every touched community
// in ascending label order: best starts at stayGain, a gain above
// best+gainEps resets the candidate set, a gain within the band joins it.
// Running that ratchet over every touched community would need a sort of
// all of them, so it runs in two passes instead:
//
//  1. In touch order, compute each community's gain once and keep only the
//     survivors, gain > stayGain-gainEps. best never falls below stayGain,
//     so a dropped community fails both ratchet branches wherever it would
//     sit in label order: it can neither reset nor join the set, and
//     dropping it changes nothing. The survivor's gain replaces its weight
//     in acc.w, so pass 2 reads the same float.
//  2. Sort the survivors and run the ratchet over them in label order.
//
// The stay-gain floor is the only sound static cut. A cut relative to the
// maximum gain (say, M-2·gainEps) is not exact: in a chain of gains about
// gainEps apart, dropping an early link changes which element does the
// last reset (TestTighterCutIsNotExact).
//
//perf:noalloc
func (s *stage) scanCandidates(u, cu int, k float64, adj []partition.Arc, acc *gainAccumulator) (stayGain, best float64, cands []int) {
	acc.reset()
	for _, a := range adj {
		if a.To == u {
			continue // self-loops contribute to no move
		}
		acc.add(int(s.comm[a.To]), a.W)
	}
	// Gain of staying: u removed from cu, then re-inserted.
	totCu := s.lookupTot(cu) - k
	stayGain = acc.w[cu] - s.gamma*totCu*k/s.m2

	// Pass 1: the stay-gain prefilter, in touch order.
	floor := stayGain - gainEps
	surv := acc.cands[:0]
	for _, c := range acc.keys {
		if c == cu {
			continue
		}
		gain := acc.w[c] - s.gamma*s.lookupTot(c)*k/s.m2
		if gain > floor {
			acc.w[c] = gain
			surv = append(surv, c)
		}
	}
	acc.cands = surv[:0]
	if len(surv) > 1 {
		sort.Ints(surv)
	}

	// Pass 2: the ratchet over the survivors in label order. cands
	// compacts in place over surv: it never holds more entries than have
	// been read.
	best = stayGain
	cands = surv[:0]
	for _, c := range surv {
		gain := acc.w[c]
		switch {
		case gain > best+gainEps:
			best = gain
			cands = append(cands[:0], c)
		case gain > best-gainEps:
			cands = append(cands, c)
		}
	}
	return stayGain, best, cands
}

// bestMove evaluates vertex u (current community from s.comm, weighted
// degree ku, adjacency adj) and returns the community it should move to.
// ok is false when the vertex stays put.
//
//perf:noalloc
func (s *stage) bestMove(u int, ku float64, adj []partition.Arc, acc *gainAccumulator) (int, bool) {
	cu := int(s.comm[u])
	stayGain, best, cands := s.scanCandidates(u, cu, ku, adj, acc)
	if len(cands) == 0 || best <= stayGain+gainEps {
		// Staying ties the best move (or beats it): do not churn.
		return 0, false
	}
	target := s.pickCandidate(cu, cands)
	if target == cu || !s.allowMove(cu, target) {
		return 0, false
	}
	return target, true
}

// allowMove applies the convergence heuristic's movement constraint
// (paper Section IV-C / Algorithm 2 line 11).
//
// Enhanced (the paper's heuristic): moves into communities local to this
// rank are unrestricted — the rank applies them Gauss-Seidel style with
// fresh aggregates, exactly like the sequential algorithm. Only moves into
// *remote* communities, whose state is one iteration stale and whose
// symmetric counterpart may move concurrently (the bouncing problem of
// Figure 3), take the minimum-label constraint C(u) = min(C_new, C_cur);
// the opposite-direction merge is performed by the remote side, which sees
// the mirrored gain.
//
// Strict restricts every move to smaller labels (provably convergent,
// slightly lower quality; ablation).
//
// Simple applies no movement constraint at all — minimum label acts only as
// the tie-breaker, which is how the paper evaluates Lu et al.'s heuristic
// in a distributed setting (and why it underperforms there).
func (s *stage) allowMove(cu, target int) bool {
	switch s.opt.Heuristic {
	case HeuristicSimple:
		return true
	case HeuristicStrict:
		return target < cu
	default: // HeuristicEnhanced
		if s.commOwner(target) == s.rnk {
			return true
		}
		return target < cu
	}
}

// pickCandidate arbitrates a set of equal-gain candidate communities
// (ascending label order) according to the configured heuristic.
func (s *stage) pickCandidate(cu int, cands []int) int {
	if len(cands) == 1 {
		return cands[0]
	}
	switch s.opt.Heuristic {
	case HeuristicSimple, HeuristicStrict:
		// Minimum label (cands are sorted).
		return cands[0]
	default:
		return s.pickEnhanced(cands)
	}
}

// pickEnhanced implements the paper's enhanced heuristic: prefer a local
// community (one owned by this rank, whose state is fresh), then a remote
// community with more than one member (unlikely to vanish underneath us),
// then the minimum-label singleton ghost community.
func (s *stage) pickEnhanced(cands []int) int {
	localBest, multiBest := -1, -1
	for _, c := range cands {
		if s.commOwner(c) == s.rnk {
			if localBest < 0 {
				localBest = c
			}
			continue
		}
		if s.cachedSize(c) > 1 && multiBest < 0 {
			multiBest = c
		}
	}
	if localBest >= 0 {
		return localBest
	}
	if multiBest >= 0 {
		return multiBest
	}
	return cands[0] // minimum-label singleton ghost
}

// hubProposal computes this rank's proposal for hub h from the local share
// of its arcs: the candidate community with the highest gain advantage over
// the hub's current community, arbitrated by the same heuristic.
//
//perf:noalloc
func (s *stage) hubProposal(h int, kh float64, adj []partition.Arc, acc *gainAccumulator) hubProposal {
	ch := int(s.comm[h])
	if len(adj) == 0 {
		return hubProposal{improvement: negInf, target: ch}
	}
	stayGain, best, cands := s.scanCandidates(h, ch, kh, adj, acc)
	if len(cands) == 0 {
		return hubProposal{improvement: negInf, target: ch}
	}
	return hubProposal{
		improvement: best - stayGain,
		target:      s.pickCandidate(ch, cands),
	}
}
