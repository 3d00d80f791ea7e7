package core

// Tests for the perf-oriented machinery: the intra-rank worker pool, the
// bit-identical determinism guarantee across Workers settings, and
// allocation ceilings on the steady-state per-iteration kernels.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// TestChunkSpan checks that chunks are contiguous, exhaustive, and a pure
// function of the data size.
func TestChunkSpan(t *testing.T) {
	for _, n := range []int{0, 1, 2, parGrain - 1, parGrain, parGrain + 1, 10 * parGrain, 1000*parGrain + 37} {
		nc := numChunks(n)
		if nc < 1 || nc > maxChunks {
			t.Fatalf("numChunks(%d) = %d out of range", n, nc)
		}
		prev := 0
		for c := 0; c < nc; c++ {
			lo, hi := chunkSpan(n, nc, c)
			if lo != prev {
				t.Fatalf("n=%d chunk %d: lo = %d, want %d (contiguous)", n, c, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d chunk %d: hi %d < lo %d", n, c, hi, lo)
			}
			prev = hi
		}
		if prev != n {
			t.Fatalf("n=%d: chunks cover [0,%d), want [0,%d)", n, prev, n)
		}
	}
}

// TestParForCoversAllChunks checks that every chunk runs exactly once and
// worker IDs stay inside the pool's index space, for pool sizes both above
// and below the chunk count.
func TestParForCoversAllChunks(t *testing.T) {
	for _, nw := range []int{1, 2, 4, 7} {
		p := newWorkerPool(nw)
		for _, nChunks := range []int{1, 2, 3, 16, 63} {
			var hits [64]atomic.Int64
			p.parFor(nChunks, func(chunk, worker int) {
				if worker < 0 || worker >= p.workers() {
					t.Errorf("nw=%d: worker %d out of range", nw, worker)
				}
				hits[chunk].Add(1)
			})
			for c := 0; c < nChunks; c++ {
				if got := hits[c].Load(); got != 1 {
					t.Fatalf("nw=%d nChunks=%d: chunk %d ran %d times", nw, nChunks, c, got)
				}
			}
		}
		p.close()
	}
}

// TestDefaultWorkers pins the auto worker count's boundary behavior.
func TestDefaultWorkers(t *testing.T) {
	if got := defaultWorkers(1 << 20); got != 1 {
		t.Fatalf("defaultWorkers(huge world) = %d, want 1", got)
	}
	if got := defaultWorkers(1); got < 1 || got > maxChunks {
		t.Fatalf("defaultWorkers(1) = %d out of [1,%d]", got, maxChunks)
	}
}

// TestWorkerDeterminism is the contract of Options.Workers: at every worker
// count the algorithm produces bit-identical results, because chunk
// boundaries depend only on data size and partial results combine in chunk
// order. Covered across all three heuristics and both partitionings.
func TestWorkerDeterminism(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(11, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []partition.Kind{partition.Delegate, partition.OneD} {
		for _, h := range []Heuristic{HeuristicEnhanced, HeuristicSimple, HeuristicStrict} {
			t.Run(fmt.Sprintf("%s/%s", kind, h), func(t *testing.T) {
				run := func(workers int) *Result {
					res, err := Run(g, Options{
						P: 4, Partitioning: kind, DHigh: 16,
						Heuristic: h, TrackTrace: true, Workers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				serial := run(1)
				for _, w := range []int{2, 4} {
					par := run(w)
					if par.Modularity != serial.Modularity {
						t.Errorf("workers=%d: Q = %v, serial %v", w, par.Modularity, serial.Modularity)
					}
					if len(par.QTrace) != len(serial.QTrace) {
						t.Fatalf("workers=%d: %d trace points, serial %d", w, len(par.QTrace), len(serial.QTrace))
					}
					for i := range par.QTrace {
						if par.QTrace[i] != serial.QTrace[i] {
							t.Errorf("workers=%d: QTrace[%d] = %v, serial %v (not bit-identical)",
								w, i, par.QTrace[i], serial.QTrace[i])
						}
					}
					if !sameMembership(par.Membership, serial.Membership) {
						t.Errorf("workers=%d: membership differs from serial", w)
					}
				}
			})
		}
	}
}

func sameMembership(a, b graph.Membership) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// steadyState drives a fresh stage to its fixed point (no vertex moves
// anywhere) and leaves the aggregate cache hot, mirroring benchKernel.
func steadyState(t *testing.T, c comm.Comm, s *stage) {
	t.Helper()
	for iter := 0; iter < s.opt.MaxInnerIters; iter++ {
		if err := s.fetchCommunityInfo(); err != nil {
			t.Fatal(err)
		}
		props, movedLocal := s.sweep()
		hubMoved, err := s.delegateExchange(props)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ghostSwap(); err != nil {
			t.Fatal(err)
		}
		if err := s.flushDeltas(); err != nil {
			t.Fatal(err)
		}
		movedTotal, err := comm.AllreduceInt64Sum(c, int64(movedLocal+hubMoved))
		if err != nil {
			t.Fatal(err)
		}
		if movedTotal == 0 {
			break
		}
	}
	if err := s.fetchCommunityInfo(); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateAllocCeilings bounds the per-iteration allocations of the
// hot kernels once the stage has converged. The sweep must be allocation-
// free; the exchanges may allocate only what the comm layer itself needs
// for frame delivery (the encode side is pooled). Run on a P=1 world so the
// ceilings are exact and scheduler-independent.
func TestSteadyStateAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting under -short")
	}
	g, err := gen.RMAT(gen.Graph500RMAT(10, 8))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := (Options{P: 1, DHigh: 32, Workers: 1}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	layout, err := partition.Build(g, partition.Options{P: 1, Kind: opt.Partitioning, DHigh: opt.DHigh})
	if err != nil {
		t.Fatal(err)
	}
	err = comm.RunWorld(1, func(c comm.Comm) error {
		s := newStage(c, layout.Parts[0], opt)
		defer s.close()
		steadyState(t, c, s)
		check := func(name string, ceiling float64, op func()) {
			op() // settle any one-time growth before counting
			if got := testing.AllocsPerRun(10, op); got > ceiling {
				t.Errorf("%s: %v allocs/op, ceiling %v", name, got, ceiling)
			}
		}
		check("sweep", 0, func() { s.sweep() })
		check("ghostSwap", 8, func() {
			if err := s.ghostSwap(); err != nil {
				t.Fatal(err)
			}
		})
		check("fetchCommunityInfo", 8, func() {
			if err := s.fetchCommunityInfo(); err != nil {
				t.Fatal(err)
			}
		})
		check("flushDeltas", 8, func() {
			if err := s.flushDeltas(); err != nil {
				t.Fatal(err)
			}
		})
		check("globalModularity", 8, func() {
			if _, err := s.globalModularity(); err != nil {
				t.Fatal(err)
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParallelKernelsUnderRace exercises the pooled kernels with more
// workers than the host has cores on a multi-rank world; meaningful chiefly
// under -race, which scripts/check.sh runs for this package.
func TestParallelKernelsUnderRace(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500RMAT(10, 8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{P: 2, DHigh: 16, Workers: 4, TrackTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(g, Options{P: 2, DHigh: 16, Workers: 1, TrackTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modularity != serial.Modularity {
		t.Fatalf("workers=4 Q=%v, workers=1 Q=%v", res.Modularity, serial.Modularity)
	}
}
