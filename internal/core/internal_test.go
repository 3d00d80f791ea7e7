package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/wire"
)

func TestCombineHubProposalsPicksMaxAndTieBreaks(t *testing.T) {
	enc := func(props ...hubProposal) []byte {
		b := wire.NewBuffer(0)
		for _, p := range props {
			b.PutF64(p.improvement)
			b.PutVarint(int64(p.target))
		}
		return b.Bytes()
	}
	a := enc(hubProposal{1.0, 5}, hubProposal{negInf, 9}, hubProposal{0.5, 3})
	b := enc(hubProposal{2.0, 7}, hubProposal{0.1, 2}, hubProposal{0.5, 1})
	out := combineHubProposals(a, b)
	rd := wire.NewReader(out)
	// hub 0: b wins on improvement
	if imp, tgt := rd.F64(), rd.Varint(); imp != 2.0 || tgt != 7 {
		t.Errorf("hub 0: (%g,%d)", imp, tgt)
	}
	// hub 1: a had -Inf, b wins
	if imp, tgt := rd.F64(), rd.Varint(); imp != 0.1 || tgt != 2 {
		t.Errorf("hub 1: (%g,%d)", imp, tgt)
	}
	// hub 2: tie on improvement, smaller target wins
	if imp, tgt := rd.F64(), rd.Varint(); imp != 0.5 || tgt != 1 {
		t.Errorf("hub 2: (%g,%d)", imp, tgt)
	}
	if rd.Err() != nil || rd.Remaining() != 0 {
		t.Fatalf("decode: err=%v rem=%d", rd.Err(), rd.Remaining())
	}
}

func TestCombineHubProposalsCommutative(t *testing.T) {
	enc := func(props ...hubProposal) []byte {
		b := wire.NewBuffer(0)
		for _, p := range props {
			b.PutF64(p.improvement)
			b.PutVarint(int64(p.target))
		}
		return b.Bytes()
	}
	a := enc(hubProposal{1.5, 4}, hubProposal{0.0, 8})
	b := enc(hubProposal{1.5, 2}, hubProposal{-1.0, 6})
	ab := combineHubProposals(a, b)
	ba := combineHubProposals(b, a)
	if string(ab) != string(ba) {
		t.Error("combine is not commutative")
	}
}

// goldenStages runs fn on a fresh stage per rank of a p-rank world over
// the golden graph (1-D partitioning).
func goldenStages(t *testing.T, p int, fn func(st *stage) error) {
	t.Helper()
	layout, err := partition.Build(goldenGraph(t), partition.Options{P: p, Kind: partition.OneD})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Options{P: p, Partitioning: partition.OneD}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	err = comm.RunWorld(p, func(c comm.Comm) error {
		st := newStage(c, layout.Parts[c.Rank()], opt)
		defer st.close()
		return fn(st)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestResolveQueries(t *testing.T) {
	goldenStages(t, 4, func(st *stage) error {
		// lookup(x) = x*10 computed at owner x%4; two rounds reuse the
		// stage's pooled buffers.
		for round := 0; round < 2; round++ {
			queries := []int{st.rnk, 7, 0, 13, st.rnk + 4 + round}
			res, err := st.resolveQueries(queries, func(x int) int { return x % 4 }, func(x int) int { return x * 10 })
			if err != nil {
				return err
			}
			for i, x := range queries {
				if res[i] != x*10 {
					return fmt.Errorf("rank %d round %d: res[%d] = %d, want %d", st.rnk, round, i, res[i], x*10)
				}
			}
		}
		return nil
	})
}

func TestResolveQueriesEmpty(t *testing.T) {
	goldenStages(t, 3, func(st *stage) error {
		res, err := st.resolveQueries(nil, func(x int) int { return x % 3 }, func(x int) int { return x })
		if err == nil && len(res) != 0 {
			err = fmt.Errorf("res = %v", res)
		}
		return err
	})
}

// TestFetchRejectsForeignCommunityIDs sends rank 0 Σtot requests it must
// not index: ids outside [0, n) and an id owned by rank 1. The answer
// kernel must turn each into comm.ErrMalformed instead of panicking a
// pool goroutine.
func TestFetchRejectsForeignCommunityIDs(t *testing.T) {
	for _, bad := range []func(n int) int{
		func(n int) int { return -2 },
		func(n int) int { return n + n%2 },
		func(n int) int { return 1 },
	} {
		goldenStages(t, 2, func(st *stage) error {
			if st.rnk == 0 {
				if err := st.fetchCommunityInfo(); !errors.Is(err, comm.ErrMalformed) {
					return fmt.Errorf("request for %d: err = %v, want ErrMalformed", bad(st.n), err)
				}
				return nil
			}
			// Rank 1 plays a hostile peer for the request leg only: rank 0
			// fails before the reply leg.
			req := wire.NewBuffer(0)
			req.PutInts([]int{0, bad(st.n)})
			_, err := comm.Alltoallv(st.c, [][]byte{req.Bytes(), nil})
			return err
		})
	}
}

func TestOptionsDefaults(t *testing.T) {
	opt, err := Options{P: 4}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if opt.MinGain != 1e-6 || opt.MaxInnerIters != 100 || opt.DHigh != 4 {
		t.Errorf("defaults: %+v", opt)
	}
	if _, err := (Options{}).withDefaults(); err == nil {
		t.Error("expected error for P = 0")
	}
}

func TestRunRankMatchesRun(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(600, 0.25, 77))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, Options{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Drive RunRank manually over an in-process world and assemble.
	pieces := make([]*RankResult, 3)
	err = comm.RunWorld(3, func(c comm.Comm) error {
		res, err := RunRank(c, g, Options{P: 3})
		if err != nil {
			return err
		}
		pieces[c.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := make(graph.Membership, g.NumVertices())
	for _, piece := range pieces {
		for i, u := range piece.Tracked {
			m[u] = piece.Labels[i]
		}
	}
	m.Normalize()
	if pieces[0].Modularity != want.Modularity {
		t.Errorf("RunRank Q = %v, Run Q = %v", pieces[0].Modularity, want.Modularity)
	}
	for i := range m {
		if m[i] != want.Membership[i] {
			t.Fatal("memberships differ between Run and RunRank")
		}
	}
}

func TestRunRankPMismatch(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	err = comm.RunWorld(2, func(c comm.Comm) error {
		_, err := RunRank(c, g, Options{P: 5})
		if err == nil {
			t.Error("expected P mismatch error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGainAccumulator(t *testing.T) {
	acc := newGainAccumulator(10)
	acc.add(3, 1.5)
	acc.add(7, 2.0)
	acc.add(3, 0.5)
	if acc.w[3] != 2.0 || acc.w[7] != 2.0 {
		t.Errorf("weights: %v", acc.w)
	}
	acc.add(1, 0.25)
	if keys := acc.keys; len(keys) != 3 || keys[0] != 3 || keys[1] != 7 || keys[2] != 1 {
		t.Errorf("keys not in touch order: %v", keys)
	}
	acc.reset()
	if acc.w[3] != 0 || acc.w[1] != 0 || acc.seen[7] || len(acc.keys) != 0 {
		t.Error("reset incomplete")
	}
}

func TestAllowMoveSemantics(t *testing.T) {
	mk := func(h Heuristic) *stage {
		return &stage{opt: Options{Heuristic: h}, p: 4, rnk: 1}
	}
	// Enhanced: local targets (owner == rank 1) always allowed.
	s := mk(HeuristicEnhanced)
	if !s.allowMove(3, 5) { // 5 % 4 == 1 == rnk, local
		t.Error("enhanced should allow local move")
	}
	if s.allowMove(3, 6) { // remote (6%4=2), 6 > 3 → blocked
		t.Error("enhanced should block upward remote move")
	}
	if !s.allowMove(7, 6) { // remote but downward
		t.Error("enhanced should allow downward remote move")
	}
	// Strict: only downward anywhere.
	s = mk(HeuristicStrict)
	if s.allowMove(3, 5) {
		t.Error("strict should block upward move")
	}
	if !s.allowMove(5, 3) {
		t.Error("strict should allow downward move")
	}
	// Simple: anything goes.
	s = mk(HeuristicSimple)
	if !s.allowMove(3, 9) || !s.allowMove(9, 3) {
		t.Error("simple should allow all moves")
	}
}

func TestPickEnhancedPreferences(t *testing.T) {
	s := &stage{opt: Options{Heuristic: HeuristicEnhanced}, p: 4, rnk: 1,
		size: make([]int32, 20), cached: make([]bool, 20)}
	// candidates sorted ascending; 5 and 9 are local (≡1 mod 4), 6 remote.
	if got := s.pickEnhanced([]int{6, 9}); got != 9 {
		t.Errorf("local preference: got %d, want 9", got)
	}
	// no local: remote multi-member (size>1) preferred over smaller singleton
	s.cached[6] = true
	s.size[6] = 3
	s.cached[2] = true
	s.size[2] = 1
	if got := s.pickEnhanced([]int{2, 6}); got != 6 {
		t.Errorf("multi-member preference: got %d, want 6", got)
	}
	// only singletons: min label
	if got := s.pickEnhanced([]int{2, 10}); got != 2 {
		t.Errorf("singleton min label: got %d, want 2", got)
	}
}

func TestStageInvariantChecker(t *testing.T) {
	// The debug invariant checker must pass on a healthy run.
	debugInvariants = true
	defer func() { debugInvariants = false }()
	g, _, err := gen.LFR(gen.DefaultLFR(300, 0.25, 15))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Modularity) {
		t.Fatal("NaN modularity")
	}
}

func TestCommModelCost(t *testing.T) {
	m := CommModel{LatencyNS: 1000, BytesPerNS: 10}
	// 3 messages, 5000 bytes: 3*1000 + 5000/10 = 3500 ns.
	if got := m.costNS(3, 5000); got != 3500 {
		t.Errorf("costNS = %d, want 3500", got)
	}
	if got := m.costNS(0, 0); got != 0 {
		t.Errorf("costNS(0,0) = %d", got)
	}
}

func TestCommSimPopulated(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(400, 0.25, 81))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stage1CommSim <= 0 {
		t.Error("Stage1CommSim not recorded")
	}
	// A slower fabric must cost more simulated comm time.
	slow, err := Run(g, Options{P: 4, Comm: CommModel{LatencyNS: 100000, BytesPerNS: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Stage1CommSim <= res.Stage1CommSim {
		t.Errorf("slow fabric comm sim %v <= default %v", slow.Stage1CommSim, res.Stage1CommSim)
	}
	// Compute sim must be unaffected by the comm model.
	if slow.Stage1Sim != res.Stage1Sim {
		t.Errorf("comm model changed compute sim: %v vs %v", slow.Stage1Sim, res.Stage1Sim)
	}
}

func TestMergeConservesWeightAndModularity(t *testing.T) {
	// Drive one stage + merge directly over an in-process world and verify
	// the merged distributed graph conserves 2m and represents the same
	// partition quality.
	g, _, err := gen.LFR(gen.DefaultLFR(400, 0.25, 91))
	if err != nil {
		t.Fatal(err)
	}
	p := 4
	layout, err := partition.Build(g, partition.Options{P: p, Kind: partition.Delegate, DHigh: 40})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]float64, p)
	weights := make([]float64, p)
	counts := make([]int, p)
	opt, err := Options{P: p}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	err = comm.RunWorld(p, func(c comm.Comm) error {
		st := newStage(c, layout.Parts[c.Rank()], opt)
		res, err := st.cluster()
		if err != nil {
			return err
		}
		newSG, k, err := st.merge()
		if err != nil {
			return err
		}
		qs[c.Rank()] = res.Q
		counts[c.Rank()] = k
		var local float64
		for _, wd := range newSG.OwnedWDeg {
			local += wd
		}
		weights[c.Rank()] = local
		// Every owned coarse vertex must be consistent with k.
		for _, v := range newSG.Owned {
			if v < 0 || v >= k {
				t.Errorf("rank %d owns out-of-range coarse vertex %d (k=%d)", c.Rank(), v, k)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var totalW float64
	for _, w := range weights {
		totalW += w
	}
	if math.Abs(totalW-g.TotalWeight2()) > 1e-6 {
		t.Errorf("merged 2m = %g, want %g", totalW, g.TotalWeight2())
	}
	for r := 1; r < p; r++ {
		if counts[r] != counts[0] || qs[r] != qs[0] {
			t.Errorf("rank %d disagrees: k=%d q=%g vs k=%d q=%g", r, counts[r], qs[r], counts[0], qs[0])
		}
	}
	if counts[0] <= 1 || counts[0] >= g.NumVertices() {
		t.Errorf("merge produced %d communities from %d vertices", counts[0], g.NumVertices())
	}
}

// dumpCoarse renders every field of a coarse subgraph, with float weights
// as raw bits, so string equality is bit-level equality of the merge
// result (including the dense translation table the next level runs on).
func dumpCoarse(sg *partition.Subgraph, k int, dense []int32) string {
	var b strings.Builder
	fmt.Fprintf(&b, "k=%d rank=%d p=%d gv=%d\ndense=%v\n", k, sg.Rank, sg.P, sg.GlobalVertices, dense)
	for i, v := range sg.Owned {
		fmt.Fprintf(&b, "v%d wdeg=%016x", v, math.Float64bits(sg.OwnedWDeg[i]))
		for _, a := range sg.AdjOwned[i] {
			fmt.Fprintf(&b, " %d:%016x", a.To, math.Float64bits(a.W))
		}
		fmt.Fprintf(&b, " subs=%v\n", sg.Subscribers[v])
	}
	fmt.Fprintf(&b, "ghosts=%v\n", sg.Ghosts)
	return b.String()
}

// TestMergeMatchesSeedCrossMatrix runs the zero-map merge back-to-back with
// the retained seed implementation (merge_seed_test.go) on the same
// converged stage and demands byte-identical coarse subgraphs — weights
// compared as raw float bits — across the full configuration matrix:
// workers {1,4} x both partitionings x P {1,2,4}. For a fixed
// (partitioning, P) the coarse graph must also be identical across worker
// counts, per the determinism regime.
func TestMergeMatchesSeedCrossMatrix(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(400, 0.25, 91))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []partition.Kind{partition.Delegate, partition.OneD} {
		for _, p := range []int{1, 2, 4} {
			layout, err := partition.Build(g, partition.Options{P: p, Kind: kind, DHigh: 40})
			if err != nil {
				t.Fatal(err)
			}
			var want []string // per-rank dumps from the first worker count
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("kind=%d/p=%d/w=%d", kind, p, workers)
				opt, err := (Options{P: p, Workers: workers, DHigh: 40, Partitioning: kind}).withDefaults()
				if err != nil {
					t.Fatal(err)
				}
				dumps := make([]string, p)
				err = comm.RunWorld(p, func(c comm.Comm) error {
					st := newStage(c, layout.Parts[c.Rank()], opt)
					defer st.close()
					if _, err := st.cluster(); err != nil {
						return err
					}
					seedSG, seedK, err := st.mergeSeed()
					if err != nil {
						return err
					}
					seedDump := dumpCoarse(seedSG, seedK, st.dense)
					newSG, k, err := st.merge()
					if err != nil {
						return err
					}
					got := dumpCoarse(newSG, k, st.dense)
					if got != seedDump {
						t.Errorf("%s rank %d: merge() differs from seed:\nnew:\n%sseed:\n%s", name, c.Rank(), got, seedDump)
					}
					if !reflect.DeepEqual(newSG, seedSG) {
						t.Errorf("%s rank %d: DeepEqual mismatch between merge() and seed subgraphs", name, c.Rank())
					}
					dumps[c.Rank()] = got
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want == nil {
					want = dumps
				} else {
					for r := range dumps {
						if dumps[r] != want[r] {
							t.Errorf("%s rank %d: coarse graph differs from first worker count of this (kind, p)", name, r)
						}
					}
				}
			}
		}
	}
}

// TestMergePreaggWireVolume is the wire-volume property test: over the
// same converged stage, the key-grouped frames of the new merge must ship
// no more collective payload bytes than the seed's one-record-per-arc
// frames — strictly fewer on a clustered graph at P=4 — while decoding to
// bit-identical totals. Snapshots of the process-global collective
// counters are taken by rank 0 between double barriers, so no rank can be
// inside either merge while a snapshot is read.
func TestMergePreaggWireVolume(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(400, 0.25, 93))
	if err != nil {
		t.Fatal(err)
	}
	p := 4
	layout, err := partition.Build(g, partition.Options{P: p, Kind: partition.Delegate, DHigh: 40})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := (Options{P: p, DHigh: 40}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	trace.EnableCollectiveStats(true)
	defer trace.EnableCollectiveStats(false)
	var seedBytes, newBytes int64
	snap := func(c comm.Comm, into *trace.CollectiveStat) error {
		if err := comm.Barrier(c); err != nil {
			return err
		}
		if c.Rank() == 0 {
			*into = trace.CollectiveTotals()
		}
		return comm.Barrier(c)
	}
	err = comm.RunWorld(p, func(c comm.Comm) error {
		st := newStage(c, layout.Parts[c.Rank()], opt)
		defer st.close()
		if _, err := st.cluster(); err != nil {
			return err
		}
		var t0, t1, t2 trace.CollectiveStat
		if err := snap(c, &t0); err != nil {
			return err
		}
		seedSG, _, err := st.mergeSeed()
		if err != nil {
			return err
		}
		if err := snap(c, &t1); err != nil {
			return err
		}
		newSG, _, err := st.merge()
		if err != nil {
			return err
		}
		if err := snap(c, &t2); err != nil {
			return err
		}
		if !reflect.DeepEqual(seedSG.OwnedWDeg, newSG.OwnedWDeg) {
			t.Errorf("rank %d: decoded weighted degrees differ between seed and pre-aggregated merge", c.Rank())
		}
		if c.Rank() == 0 {
			seedBytes = t1.Bytes - t0.Bytes
			newBytes = t2.Bytes - t1.Bytes
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if newBytes <= 0 || seedBytes <= 0 {
		t.Fatalf("collective counters recorded nothing: seed=%d new=%d", seedBytes, newBytes)
	}
	if newBytes >= seedBytes {
		t.Errorf("pre-aggregated merge shipped %d bytes, seed shipped %d: want strictly fewer", newBytes, seedBytes)
	}
	t.Logf("merge wire volume: seed=%dB preagg=%dB (%.1f%% of seed)", seedBytes, newBytes, 100*float64(newBytes)/float64(seedBytes))
}

// TestMergeWideWorldSubscribers covers the p > 64 subscriber path, where
// the per-row destination bitmask no longer fits a uint64 and the merge
// falls back to the boolean-mark walk.
func TestMergeWideWorldSubscribers(t *testing.T) {
	if testing.Short() {
		t.Skip("65-rank world under -short")
	}
	g, _, err := gen.Caveman(40, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := 65
	layout, err := partition.Build(g, partition.Options{P: p, Kind: partition.OneD})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := (Options{P: p, Partitioning: partition.OneD}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	err = comm.RunWorld(p, func(c comm.Comm) error {
		st := newStage(c, layout.Parts[c.Rank()], opt)
		defer st.close()
		if _, err := st.cluster(); err != nil {
			return err
		}
		seedSG, seedK, err := st.mergeSeed()
		if err != nil {
			return err
		}
		seedDump := dumpCoarse(seedSG, seedK, st.dense)
		newSG, k, err := st.merge()
		if err != nil {
			return err
		}
		if got := dumpCoarse(newSG, k, st.dense); got != seedDump {
			t.Errorf("rank %d: wide-world merge differs from seed:\nnew:\n%sseed:\n%s", c.Rank(), got, seedDump)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
