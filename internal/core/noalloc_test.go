package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/partition"
)

// TestNoallocAnnotations is the runtime half of the //perf:noalloc regime:
// the noalloc analyzer proves the annotated bodies contain no allocating
// constructs, and this harness bounds the same functions with
// testing.AllocsPerRun ceilings of zero in the converged steady state. The
// driver table is checked against analysis.NoallocFuncs, so annotating a
// new function without adding a driver (or vice versa) fails here.
func TestNoallocAnnotations(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting under -short")
	}
	annotated, err := analysis.NoallocFuncs(".")
	if err != nil {
		t.Fatalf("reading //perf:noalloc annotations: %v", err)
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

		acc := s.accs[0]
		u := s.sg.Owned[0]
		ku := s.sg.OwnedWDeg[0]
		adj := s.sg.AdjOwned[0]
		cu := int(s.comm[u])

		// Preallocated operands for the merge counting-sort kernels: 8
		// records over a 4-key space, 2 chunks, ranks p=2 / rowsCap=2.
		mx := []int32{3, 1, 2, 0, 1, 3, 0, 2}
		my := []int32{0, 1, 2, 3, 0, 1, 2, 3}
		mw := []float64{1, 2, 3, 4, 5, 6, 7, 8}
		mh := make([]int32, 2*4)
		mox := make([]int32, len(mx))
		moy := make([]int32, len(my))
		mow := make([]float64, len(mw))
		mbounds := make([]int, 5)
		histPrep := func() {
			histCount(mx, 0, len(mx)/2, mh[:4])
			histCount(mx, len(mx)/2, len(mx), mh[4:])
			histOffsets(mh, 2, 4, 0, nil)
		}
		histPrepFused := func() {
			histCountFused(mx, 0, len(mx)/2, 2, 2, mh[:4])
			histCountFused(mx, len(mx)/2, len(mx), 2, 2, mh[4:])
			histOffsets(mh, 2, 4, 0, nil)
		}

		// One driver per annotated function. hubProposal is exercised on an
		// owned vertex's data: it only reads stage state, so any vertex with
		// adjacency stands in for a hub.
		drivers := map[string]func(){
			"stage.sweep":           func() { s.sweep() },
			"stage.sendScratch":     func() { s.sendScratch() },
			"gainAccumulator.reset": func() { acc.reset() },
			"gainAccumulator.add":   func() { acc.reset(); acc.add(cu, 1.0) },
			"stage.scanCandidates":  func() { s.scanCandidates(u, cu, ku, adj, acc) },
			"stage.bestMove":        func() { s.bestMove(u, ku, adj, acc) },
			"stage.hubProposal":     func() { s.hubProposal(u, ku, adj, acc) },
			"fillInt32":             func() { fillInt32(mh, -1) },
			"histCount":             func() { histCount(mx, 0, len(mx), mh[:4]) },
			"histCountFused":        func() { histCountFused(mx, 0, len(mx), 2, 2, mh[:4]) },
			"histOffsets":           func() { histPrep(); histOffsets(mh, 2, 4, 1, mbounds) },
			"scatterRecords": func() {
				histPrep()
				scatterRecords(mx, my, mw, 0, len(mx)/2, mh[:4], mox, moy, mow)
			},
			"scatterFused": func() {
				histPrepFused()
				scatterFused(mx, my, mw, 0, len(mx)/2, 2, 2, mh[:4], mox, moy, mow)
			},
		}

		var table []string
		for name := range drivers {
			table = append(table, name)
		}
		sort.Strings(table)
		if fmt.Sprint(table) != fmt.Sprint(annotated) {
			t.Fatalf("driver table out of sync with //perf:noalloc annotations:\n  annotated: %v\n  drivers:   %v", annotated, table)
		}

		for _, name := range table {
			op := drivers[name]
			op() // settle one-time growth before counting
			if got := testing.AllocsPerRun(10, op); got > 0 {
				t.Errorf("%s: %v allocs/op, //perf:noalloc promises 0", name, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
