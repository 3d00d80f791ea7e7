package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/partition"
)

// scanCandidatesRef is the single-pass candidate selection scanCandidates
// replaced: sort every touched community, then run the ε-band ratchet over
// all of them in label order. It is the oracle the two-pass prefilter must
// match bit for bit.
func (s *stage) scanCandidatesRef(u, cu int, k float64, adj []partition.Arc, acc *gainAccumulator) (stayGain, best float64, cands []int) {
	acc.reset()
	for _, a := range adj {
		if a.To == u {
			continue
		}
		acc.add(int(s.comm[a.To]), a.W)
	}
	totCu := s.lookupTot(cu) - k
	stayGain = acc.w[cu] - s.gamma*totCu*k/s.m2

	keys := append([]int(nil), acc.keys...)
	sort.Ints(keys)
	best = stayGain
	for _, c := range keys {
		if c == cu {
			continue
		}
		gain := acc.w[c] - s.gamma*s.lookupTot(c)*k/s.m2
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

// bestMoveRef and hubProposalRef are bestMove and hubProposal on top of the
// reference selection.
func (s *stage) bestMoveRef(u int, ku float64, adj []partition.Arc, acc *gainAccumulator) (int, bool) {
	cu := int(s.comm[u])
	stayGain, best, cands := s.scanCandidatesRef(u, cu, ku, adj, acc)
	if len(cands) == 0 || best <= stayGain+gainEps {
		return 0, false
	}
	target := s.pickCandidate(cu, cands)
	if target == cu || !s.allowMove(cu, target) {
		return 0, false
	}
	return target, true
}

func (s *stage) hubProposalRef(h int, kh float64, adj []partition.Arc, acc *gainAccumulator) hubProposal {
	ch := int(s.comm[h])
	if len(adj) == 0 {
		return hubProposal{improvement: negInf, target: ch}
	}
	stayGain, best, cands := s.scanCandidatesRef(h, ch, kh, adj, acc)
	if len(cands) == 0 {
		return hubProposal{improvement: negInf, target: ch}
	}
	return hubProposal{improvement: best - stayGain, target: s.pickCandidate(ch, cands)}
}

// candCase is one candidate-selection input: a stage's label and Σtot/size
// tables plus one vertex u with weighted degree k and adjacency adj.
type candCase struct {
	name  string
	n     int
	m2    float64
	comm  []int32
	tot   []float64
	size  []int32
	u     int
	k     float64
	adj   []partition.Arc
	gamma float64
}

// stage builds a minimal rank-1-of-4 stage over the case's tables with
// every community cached.
func (cc candCase) stage(h Heuristic) *stage {
	s := &stage{
		opt: Options{Heuristic: h}, p: 4, rnk: 1, n: cc.n,
		m2: cc.m2, gamma: cc.gamma,
		comm: cc.comm, tot: cc.tot, size: cc.size, cached: make([]bool, cc.n),
	}
	for c := range s.cached {
		s.cached[c] = true
	}
	return s
}

// randomCandCase draws labels from a small community space and weights and
// Σtot from small discrete sets, so exact gain ties are common.
func randomCandCase(seed int64) candCase {
	rng := rand.New(rand.NewSource(seed))
	n := 50 + rng.Intn(200)
	nc := 1 + rng.Intn(n)
	cc := candCase{
		name: fmt.Sprintf("random/seed=%d", seed), n: n,
		comm: make([]int32, n), tot: make([]float64, n), size: make([]int32, n),
		gamma: []float64{1, 0.5, 2}[rng.Intn(3)],
	}
	for v := range cc.comm {
		cc.comm[v] = int32(rng.Intn(nc))
	}
	weights := []float64{0.5, 1, 1, 2, 3}
	deg := rng.Intn(3 * n)
	cc.u = rng.Intn(n)
	for i := 0; i < deg; i++ {
		w := weights[rng.Intn(len(weights))]
		if rng.Intn(4) == 0 {
			w = 0.1 + rng.Float64()
		}
		cc.adj = append(cc.adj, partition.Arc{To: rng.Intn(n), W: w})
		cc.k += w
	}
	cc.m2 = 2*cc.k + float64(rng.Intn(4*n))
	for c := range cc.tot {
		cc.tot[c] = float64(1 + rng.Intn(8))
		if rng.Intn(3) == 0 {
			cc.tot[c] = rng.Float64() * float64(n)
		}
		cc.size[c] = int32(1 + rng.Intn(3))
	}
	cc.tot[cc.comm[cc.u]] += cc.k
	return cc
}

// packedCandCase places one neighbour in each of nc communities with gains
// spaced 0.5–1.5 gainEps apart, straddling the stay gain (γ = k = m2 = 1,
// so a neighbour's gain is w − Σtot). The labels are shuffled, so the
// label-order ratchet sees the chain in a scrambled order. cuTouched gives
// u a neighbour in its own community.
func packedCandCase(seed int64, nc int, cuTouched bool) candCase {
	rng := rand.New(rand.NewSource(seed))
	n := 2*nc + 2
	cc := candCase{
		name: fmt.Sprintf("packed/seed=%d/nc=%d/cuTouched=%v", seed, nc, cuTouched),
		n:    n, m2: 1, k: 1, gamma: 1, u: n - 1,
		comm: make([]int32, n), tot: make([]float64, n), size: make([]int32, n),
	}
	cu := n - 1
	cc.comm[cc.u] = int32(cu)
	for c := range cc.size {
		cc.size[c] = int32(1 + rng.Intn(2))
	}
	// stayGain = w(u→cu) − (Σtot(cu) − 1).
	const stay = 0.25
	wcu := 0.0
	if cuTouched {
		wcu = 0.75
		cc.comm[n-2] = int32(cu)
		cc.adj = append(cc.adj, partition.Arc{To: n - 2, W: wcu})
	}
	cc.tot[cu] = 1 + wcu - stay
	labels := rng.Perm(nc)
	g := stay - float64(nc)/2*gainEps
	for i := 0; i < nc; i++ {
		g += (0.5 + rng.Float64()) * gainEps
		c := labels[i] * 2 // every second label, so owners vary
		v := c + 1
		cc.comm[v] = int32(c)
		cc.adj = append(cc.adj, partition.Arc{To: v, W: 1})
		cc.tot[c] = 1 - g
	}
	rng.Shuffle(len(cc.adj), func(i, j int) { cc.adj[i], cc.adj[j] = cc.adj[j], cc.adj[i] })
	return cc
}

// tiedCandCase gives u one identical neighbour in each of nc communities:
// every candidate gain is the same float.
func tiedCandCase(nc int) candCase {
	n := nc + 1
	cc := candCase{
		name: fmt.Sprintf("tied/nc=%d", nc), n: n, m2: 100, k: float64(nc), gamma: 1, u: nc,
		comm: make([]int32, n), tot: make([]float64, n), size: make([]int32, n),
	}
	for v := 0; v < nc; v++ {
		cc.comm[v] = int32(nc - 1 - v)
		cc.tot[v] = 3
		cc.size[v] = 2
		cc.adj = append(cc.adj, partition.Arc{To: v, W: 1})
	}
	cc.comm[cc.u] = int32(nc)
	cc.tot[nc] = cc.k + 1
	cc.size[nc] = 1
	return cc
}

// selfLoopCandCase is a vertex whose only arcs are self-loops: no
// community is touched but its own, and nothing can be a candidate.
func selfLoopCandCase() candCase {
	return candCase{
		name: "self-loops", n: 4, m2: 10, k: 3, gamma: 1, u: 2,
		comm: []int32{0, 1, 2, 3}, tot: []float64{1, 1, 3, 1}, size: []int32{1, 1, 1, 1},
		adj: []partition.Arc{{To: 2, W: 1}, {To: 2, W: 2}},
	}
}

func candCases() []candCase {
	var cases []candCase
	for seed := int64(0); seed < 300; seed++ {
		cases = append(cases, randomCandCase(seed))
	}
	for seed := int64(0); seed < 40; seed++ {
		for _, nc := range []int{1, 2, 3, 7, 40} {
			cases = append(cases, packedCandCase(seed, nc, false), packedCandCase(seed, nc, true))
		}
	}
	for _, nc := range []int{1, 2, 5, 64} {
		cases = append(cases, tiedCandCase(nc))
	}
	return append(cases, selfLoopCandCase())
}

// TestScanCandidatesMatchesRef is the prefilter's oracle property: on
// seeded random inputs and adversarial ones (gains packed 0.5–1.5 gainEps
// apart around the stay gain, u's own community untouched, all candidates
// tied, self-loops only), scanCandidates returns exactly the reference's
// stay gain, best gain and candidate list, and bestMove and hubProposal
// agree with the reference under every heuristic.
func TestScanCandidatesMatchesRef(t *testing.T) {
	for _, cc := range candCases() {
		for _, h := range []Heuristic{HeuristicEnhanced, HeuristicSimple, HeuristicStrict} {
			s := cc.stage(h)
			acc, ref := newGainAccumulator(cc.n), newGainAccumulator(cc.n)
			cu := int(cc.comm[cc.u])
			// Twice on the same accumulators: the second call must not see
			// the first's leftovers.
			for rep := 0; rep < 2; rep++ {
				stay, best, cands := s.scanCandidates(cc.u, cu, cc.k, cc.adj, acc)
				wStay, wBest, wCands := s.scanCandidatesRef(cc.u, cu, cc.k, cc.adj, ref)
				if math.Float64bits(stay) != math.Float64bits(wStay) ||
					math.Float64bits(best) != math.Float64bits(wBest) ||
					fmt.Sprint(cands) != fmt.Sprint(wCands) {
					t.Fatalf("%s h=%v: scanCandidates = (%v, %v, %v), reference (%v, %v, %v)",
						cc.name, h, stay, best, cands, wStay, wBest, wCands)
				}
			}
			gotT, gotOK := s.bestMove(cc.u, cc.k, cc.adj, acc)
			wantT, wantOK := s.bestMoveRef(cc.u, cc.k, cc.adj, ref)
			if gotT != wantT || gotOK != wantOK {
				t.Fatalf("%s h=%v: bestMove = (%d, %v), reference (%d, %v)", cc.name, h, gotT, gotOK, wantT, wantOK)
			}
			got := s.hubProposal(cc.u, cc.k, cc.adj, acc)
			want := s.hubProposalRef(cc.u, cc.k, cc.adj, ref)
			if math.Float64bits(got.improvement) != math.Float64bits(want.improvement) || got.target != want.target {
				t.Fatalf("%s h=%v: hubProposal = %+v, reference %+v", cc.name, h, got, want)
			}
		}
	}
}

// TestScanCandidatesCases pins the adversarial cases' outcomes, so the
// oracle comparison above cannot pass vacuously.
func TestScanCandidatesCases(t *testing.T) {
	tc := tiedCandCase(5)
	_, _, cands := tc.stage(HeuristicSimple).scanCandidates(tc.u, 5, tc.k, tc.adj, newGainAccumulator(tc.n))
	if fmt.Sprint(cands) != "[0 1 2 3 4]" {
		t.Errorf("tied: cands %v, want every community in label order", cands)
	}
	sl := selfLoopCandCase()
	stay, best, cands := sl.stage(HeuristicEnhanced).scanCandidates(sl.u, 2, sl.k, sl.adj, newGainAccumulator(sl.n))
	if len(cands) != 0 || best != stay {
		t.Errorf("self-loops: (%v, %v, %v), want no candidates and best == stay", stay, best, cands)
	}
	// Packed chains must exercise both ratchet branches and the floor: some
	// cases keep several candidates, some a single one.
	multi, single := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		cc := packedCandCase(seed, 40, seed%2 == 0)
		_, _, cands := cc.stage(HeuristicEnhanced).scanCandidates(cc.u, int(cc.comm[cc.u]), cc.k, cc.adj, newGainAccumulator(cc.n))
		switch {
		case len(cands) > 1:
			multi++
		case len(cands) == 1:
			single++
		}
	}
	if multi == 0 || single == 0 {
		t.Errorf("packed chains: %d multi-candidate and %d single-candidate results, want both", multi, single)
	}
}

// ratchet is the ε-band candidate ratchet over (label, gain) pairs already
// in label order, starting from best.
func ratchet(best float64, labels []int, gains []float64) []int {
	var cands []int
	for i, c := range labels {
		switch g := gains[i]; {
		case g > best+gainEps:
			best = g
			cands = append(cands[:0], c)
		case g > best-gainEps:
			cands = append(cands, c)
		}
	}
	return cands
}

// TestTighterCutIsNotExact shows why the prefilter cuts at the stay gain
// and not at the maximum gain M. With gains x, x+0.9ε, x+1.8ε, x+2.7ε in
// label order, the full ratchet resets at x, lets x+0.9ε join, resets at
// x+1.8ε and lets x+2.7ε join: {2, 3}. A cut at M−2ε = x+0.7ε drops x, so
// x+0.9ε does the first reset, x+1.8ε joins it instead of resetting, and
// x+2.7ε resets: {3}. The stay-gain cut keeps all four and matches.
func TestTighterCutIsNotExact(t *testing.T) {
	const x, stay = 0.5, 0.25
	labels := []int{0, 1, 2, 3}
	gains := []float64{x, x + 0.9*gainEps, x + 1.8*gainEps, x + 2.7*gainEps}
	full := ratchet(stay, labels, gains)
	if fmt.Sprint(full) != "[2 3]" {
		t.Fatalf("full ratchet: %v, want [2 3]", full)
	}
	cut := func(floor float64) ([]int, []float64) {
		var l []int
		var g []float64
		for i := range labels {
			if gains[i] > floor {
				l, g = append(l, labels[i]), append(g, gains[i])
			}
		}
		return l, g
	}
	l, g := cut(gains[3] - 2*gainEps)
	if got := ratchet(stay, l, g); fmt.Sprint(got) == fmt.Sprint(full) {
		t.Errorf("max-gain cut kept %v and matched the full ratchet; the counterexample no longer bites", l)
	}
	l, g = cut(stay - gainEps)
	if got := ratchet(stay, l, g); fmt.Sprint(got) != fmt.Sprint(full) {
		t.Errorf("stay-gain cut: %v, want %v", got, full)
	}
}
