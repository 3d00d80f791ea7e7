package core

// Microbenchmarks for the stage-1 clustering kernels, run with -benchmem.
// Each benchmark drives one kernel on every rank of a p=4 in-process world
// after warming the stage into its steady state (no vertex moves anywhere),
// so the numbers isolate the per-iteration cost of the kernel itself —
// scratch allocation, encoding, and arc scanning — rather than first-touch
// setup. scripts/bench.sh runs these and records the trajectory in
// BENCH_<pr>.json; allocs/op here is the headline number the zero-allocation
// work is measured by.

import (
	"errors"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/partition"
)

// benchWorldSize is the world size of every kernel benchmark. Big enough
// that the all-to-all exchanges have real fan-out, small enough that a
// single host machine is not oversubscribed during timing.
const benchWorldSize = 4

// benchKernel runs op b.N times on every rank of a steady-state stage and
// times it from rank 0. All ranks execute the same op sequence, so kernels
// containing collectives stay symmetric.
func benchKernel(b *testing.B, op func(s *stage) error) {
	b.Helper()
	g, err := gen.RMAT(gen.Graph500RMAT(12, 7))
	if err != nil {
		b.Fatal(err)
	}
	opt, err := (Options{P: benchWorldSize, DHigh: 64}).withDefaults()
	if err != nil {
		b.Fatal(err)
	}
	layout, err := partition.Build(g, partition.Options{
		P: opt.P, Kind: opt.Partitioning, DHigh: opt.DHigh,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	err = comm.RunWorld(opt.P, func(c comm.Comm) error {
		s := newStage(c, layout.Parts[c.Rank()], opt)
		defer s.close()
		// Warm up to the fixed point: iterate the full per-iteration
		// protocol until no vertex moves anywhere in the world.
		for iter := 0; iter < opt.MaxInnerIters; iter++ {
			movedTotal, err := benchIteration(c, s)
			if err != nil {
				return err
			}
			if movedTotal == 0 {
				break
			}
		}
		// Steady-state sweeps still need fresh aggregates in the cache.
		if err := s.fetchCommunityInfo(); err != nil {
			return err
		}
		if err := comm.Barrier(c); err != nil {
			return err
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := op(s); err != nil {
				return err
			}
		}
		return comm.Barrier(c)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchIteration runs one iteration of the per-iteration protocol on
// every rank and returns the number of vertices moved world-wide.
func benchIteration(c comm.Comm, s *stage) (int64, error) {
	if err := s.fetchCommunityInfo(); err != nil {
		return 0, err
	}
	props, movedLocal := s.sweep()
	hubMoved, err := s.delegateExchange(props)
	if err != nil {
		return 0, err
	}
	if err := s.ghostSwap(); err != nil {
		return 0, err
	}
	if err := s.flushDeltas(); err != nil {
		return 0, err
	}
	return comm.AllreduceInt64Sum(c, int64(movedLocal+hubMoved))
}

// BenchmarkKernelSweep measures the greedy local-moving pass (owned
// Gauss-Seidel sweep + per-hub proposals) with no communication.
func BenchmarkKernelSweep(b *testing.B) {
	benchKernel(b, func(s *stage) error {
		s.sweep()
		return nil
	})
}

// BenchmarkKernelFetchCommunityInfo measures the Σtot/size cache refresh
// in the steady state: the reference-set walk and diff against the
// subscriptions, two all-to-alls of empty subscription changes, and an
// empty push scan (no community changed).
func BenchmarkKernelFetchCommunityInfo(b *testing.B) {
	benchKernel(b, func(s *stage) error {
		return s.fetchCommunityInfo()
	})
}

// BenchmarkKernelGhostSwap measures the ghost label exchange in the steady
// state (no changed vertices: pure frame setup + empty all-to-all).
func BenchmarkKernelGhostSwap(b *testing.B) {
	benchKernel(b, func(s *stage) error {
		return s.ghostSwap()
	})
}

// BenchmarkKernelFlushDeltas measures the Σtot delta routing in the steady
// state (empty ledger: pure frame setup + empty all-to-all).
func BenchmarkKernelFlushDeltas(b *testing.B) {
	benchKernel(b, func(s *stage) error {
		return s.flushDeltas()
	})
}

// BenchmarkKernelDelegateExchange measures hub-proposal encode + allreduce
// + replicated apply.
func BenchmarkKernelDelegateExchange(b *testing.B) {
	benchKernel(b, func(s *stage) error {
		props, _ := s.sweep()
		_, err := s.delegateExchange(props)
		return err
	})
}

// BenchmarkKernelGlobalModularity measures the full local arc scan plus the
// −(Σtot/2m)² owner terms and the world reduction.
func BenchmarkKernelGlobalModularity(b *testing.B) {
	benchKernel(b, func(s *stage) error {
		_, err := s.globalModularity()
		return err
	})
}

// BenchmarkKernelScanCandidates measures candidate selection alone on one
// hub-sized adjacency: the largest hub of a single-rank R-MAT scale-14
// stage after one iteration, whose arcs touch about 3,000 communities
// (reported as touched/op). Every gain there is below the stay gain, so
// the prefilter leaves nothing to sort; the kernel's cost is the
// accumulation and one gain per touched community.
func BenchmarkKernelScanCandidates(b *testing.B) {
	g, err := gen.RMAT(gen.Graph500RMAT(14, 7))
	if err != nil {
		b.Fatal(err)
	}
	opt, err := (Options{P: 1, DHigh: 64}).withDefaults()
	if err != nil {
		b.Fatal(err)
	}
	layout, err := partition.Build(g, partition.Options{P: 1, Kind: opt.Partitioning, DHigh: opt.DHigh})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	err = comm.RunWorld(1, func(c comm.Comm) error {
		s := newStage(c, layout.Parts[0], opt)
		defer s.close()
		if _, err := benchIteration(c, s); err != nil {
			return err
		}
		if err := s.fetchCommunityInfo(); err != nil {
			return err
		}
		if len(s.sg.Hubs) == 0 {
			return errors.New("no hubs at DHigh 64")
		}
		h := 0
		for i, adj := range s.sg.AdjHub {
			if len(adj) > len(s.sg.AdjHub[h]) {
				h = i
			}
		}
		u, k, adj := s.sg.Hubs[h], s.sg.HubWDeg[h], s.sg.AdjHub[h]
		cu, acc := int(s.comm[u]), s.accs[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.scanCandidates(u, cu, k, adj, acc)
		}
		b.StopTimer()
		b.ReportMetric(float64(len(acc.keys)), "touched/op")
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
