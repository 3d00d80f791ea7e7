package core

import (
	"sync"
	"testing"

	"repro/internal/partition"
)

// Tests for the collective schedule's core-side wiring: the per-iteration
// allreduce fusion (exactly one reduction carries moved count, work max,
// comm max, Q and, with rebalancing on, the per-rank work vector) and the
// bit-identity of clean and benignly chaotic runs.

// TestIterationSingleAllreduce pins the per-iteration message budget at
// P=4 under 1-D partitioning (no hubs, so delegateExchange sends nothing):
//
//	fetchCommunityInfo   2 alltoallv × (p−1)  = 6
//	ghostSwap            1 alltoallv × (p−1)  = 3
//	flushDeltas          1 alltoallv × (p−1)  = 3
//	fused IterStats      1 allreduce × log2 p = 2   → 14 total
//
// Any regression that reintroduces a separate per-iteration reduction — or
// sneaks in an extra exchange — shifts the count and fails here.
// TestRebalanceMessageBudget holds the rebalancer to the same budget.
func TestIterationSingleAllreduce(t *testing.T) {
	const p = 4
	t.Run("rebalance-off", func(t *testing.T) {
		checkIterationBudget(t, Options{P: p, Partitioning: partition.OneD},
			func(*stage) bool { return true }, 4*(p-1)+2)
	})
}

// checkIterationBudget runs the golden graph under opt and asserts that
// each pair of consecutive iterations of every P=opt.P stage that keep
// accepts sent exactly want messages per rank. The MsgsSent delta between
// consecutive iteration hooks of one stage is exactly one iteration's
// traffic: stage setup and merge frames fall between stages, never
// between iterations.
func checkIterationBudget(t *testing.T, opt Options, keep func(*stage) bool, want int64) {
	t.Helper()
	g := goldenGraph(t)
	var mu sync.Mutex
	recs := make(map[*stage][]int64)
	testIterHook = func(s *stage, iter int, q float64) error {
		if s.p != opt.P || !keep(s) {
			return nil
		}
		snap := s.c.Stats().Snapshot()
		mu.Lock()
		recs[s] = append(recs[s], snap.MsgsSent)
		mu.Unlock()
		return nil
	}
	defer func() { testIterHook = nil }()
	if _, err := Run(g, opt); err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for _, ms := range recs {
		for i := 1; i < len(ms); i++ {
			if d := ms[i] - ms[i-1]; d != want {
				t.Fatalf("iteration sent %d messages per rank, want %d", d, want)
			}
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("no stage ran two consecutive iterations; the budget was never checked")
	}
}

// TestBenignChaosMatchesClean pins determinism end to end on the golden
// fixture graph: seeded benign chaos schedules (reordering, delays,
// duplicates, retried transient send failures) must reproduce the clean
// run's modularity and membership bit for bit, under both partitionings.
func TestBenignChaosMatchesClean(t *testing.T) {
	g := goldenGraph(t)
	for _, pk := range []partition.Kind{partition.Delegate, partition.OneD} {
		opt := Options{P: 4, Heuristic: HeuristicEnhanced, Partitioning: pk}
		clean, err := Run(g, opt)
		if err != nil {
			t.Fatalf("part=%v: %v", pk, err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			m, q := chaosRun(t, g, opt, benignCoreChaos(seed))
			if q != clean.Modularity {
				t.Fatalf("part=%v chaos seed %d: Q %.17g, clean %.17g", pk, seed, q, clean.Modularity)
			}
			for u := range m {
				if m[u] != clean.Membership[u] {
					t.Fatalf("part=%v chaos seed %d vertex %d: community %d, clean %d",
						pk, seed, u, m[u], clean.Membership[u])
				}
			}
		}
	}
}
