package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/wire"
)

// ---------------------------------------------------------------------------
// Oracle: the full refetch the subscription fetch replaced.

// aggRef is one community's (Σtot, size) as its owner holds it.
type aggRef struct {
	tot  float64
	size int32
}

// refetchRef is the pre-subscription fetchCommunityInfo, kept as the
// oracle of the subscription protocol: every rank requests every community
// its locally known vertices reference, sorted per owner, and the owners
// answer each request from their authoritative tables. It returns R_t with
// the owners' values. It uses buffers of its own and leaves the stage
// untouched; it is collective, so every rank must call it.
func refetchRef(s *stage) (map[int]aggRef, error) {
	mark := make([]bool, s.n)
	reqs := make([][]int, s.p)
	for _, vs := range [][]int{s.sg.Owned, s.sg.Hubs, s.sg.Ghosts} {
		for _, v := range vs {
			c := int(s.comm[v])
			if !mark[c] {
				mark[c] = true
				reqs[c%s.p] = append(reqs[c%s.p], c)
			}
		}
	}
	out := make([][]byte, s.p)
	for r := range reqs {
		sort.Ints(reqs[r])
		b := wire.NewBuffer(0)
		b.PutInts(reqs[r])
		out[r] = b.Bytes()
	}
	in, err := comm.Alltoallv(s.c, out)
	if err != nil {
		return nil, err
	}
	replies := make([][]byte, s.p)
	for r := range in {
		rd := wire.NewReader(in[r])
		ids := rd.Ints()
		if err := rd.Err(); err != nil {
			return nil, err
		}
		b := wire.NewBuffer(0)
		for _, c := range ids {
			if c < 0 || c >= s.n || c%s.p != s.rnk {
				return nil, fmt.Errorf("rank %d: request for community %d: %w", s.rnk, c, comm.ErrMalformed)
			}
			b.PutF64(s.ownTot[c])
			b.PutVarint(int64(s.ownSize[c]))
		}
		replies[r] = b.Bytes()
	}
	ans, err := comm.Alltoallv(s.c, replies)
	if err != nil {
		return nil, err
	}
	want := make(map[int]aggRef)
	for r := range ans {
		rd := wire.NewReader(ans[r])
		for _, c := range reqs[r] {
			want[c] = aggRef{tot: rd.F64(), size: int32(rd.Varint())}
		}
		if err := rd.Err(); err != nil {
			return nil, err
		}
	}
	return want, nil
}

// checkFetchAgainstRef compares the stage's cache, right after a fetch,
// with the oracle's: the cached set must be exactly R_t and every value
// must bit-equal the owner's. It returns how many cached entries the
// fetch carried over from the previous one instead of requesting them.
func checkFetchAgainstRef(s *stage) (int, error) {
	want, err := refetchRef(s)
	if err != nil {
		return 0, err
	}
	cached := 0
	for c := 0; c < s.n; c++ {
		if !s.cached[c] {
			continue
		}
		cached++
		w, ok := want[c]
		if !ok {
			return 0, fmt.Errorf("rank %d: community %d cached but not referenced", s.rnk, c)
		}
		if math.Float64bits(s.tot[c]) != math.Float64bits(w.tot) || s.size[c] != w.size {
			return 0, fmt.Errorf("rank %d: community %d cached (%v, %d), owner holds (%v, %d)",
				s.rnk, c, s.tot[c], s.size[c], w.tot, w.size)
		}
	}
	if cached != len(want) || len(s.cachedList) != len(want) {
		return 0, fmt.Errorf("rank %d: %d cached, cachedList %d, %d referenced", s.rnk, cached, len(s.cachedList), len(want))
	}
	for _, c := range s.cachedList {
		if !s.cached[c] {
			return 0, fmt.Errorf("rank %d: cachedList holds uncached community %d", s.rnk, c)
		}
	}
	carried := len(s.cachedList)
	for _, ids := range s.subs {
		carried -= len(ids)
	}
	return carried, nil
}

// withFetchOracle installs checkFetchAgainstRef as the fetch hook for the
// duration of run, and returns the number of fetches checked and of cached
// entries carried over across them.
func withFetchOracle(t *testing.T, run func()) (fetches, carried int64) {
	t.Helper()
	var nf, nc atomic.Int64
	testFetchHook = func(s *stage) error {
		kept, err := checkFetchAgainstRef(s)
		nf.Add(1)
		nc.Add(int64(kept))
		return err
	}
	defer func() { testFetchHook = nil }()
	run()
	return nf.Load(), nc.Load()
}

// TestFetchMatchesFullRefetch checks the subscription fetch against the
// full refetch after every fetch of every stage: the golden graph, R-MAT
// and LFR, under delegate and 1-D partitioning, P ∈ {1, 2, 3, 4, 8}, all
// three heuristics, with rebalancing on, and through a serving session's
// incremental batches and drift fallbacks.
func TestFetchMatchesFullRefetch(t *testing.T) {
	rm, err := gen.RMAT(gen.Graph500RMAT(9, 5))
	if err != nil {
		t.Fatal(err)
	}
	lfr, _, err := gen.LFR(gen.DefaultLFR(400, 0.3, 21))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"golden", goldenGraph(t)}, {"rmat", rm}, {"lfr", lfr}}
	for _, gc := range graphs {
		for _, pk := range []partition.Kind{partition.Delegate, partition.OneD} {
			for _, p := range []int{1, 2, 3, 4, 8} {
				for _, h := range []Heuristic{HeuristicSimple, HeuristicEnhanced, HeuristicStrict} {
					name := fmt.Sprintf("%s/%v/p%d/%s", gc.name, pk, p, h)
					opt := Options{P: p, Partitioning: pk, Heuristic: h}
					fetches, carried := withFetchOracle(t, func() {
						if _, err := Run(gc.g, opt); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					})
					if fetches == 0 {
						t.Fatalf("%s: no fetch checked", name)
					}
					if gc.name != "golden" && carried == 0 {
						t.Errorf("%s: every fetch requested its whole reference set", name)
					}
				}
			}
		}
	}

	t.Run("rebalance", func(t *testing.T) {
		var res *Result
		fetches, _ := withFetchOracle(t, func() {
			res, err = Run(skewedRMAT(t), rebalanceOpt(4, partition.OneD, "greedy"))
			if err != nil {
				t.Fatal(err)
			}
		})
		if fetches == 0 || res.MigratedVertices == 0 {
			t.Fatalf("fetches=%d migrated=%d: the rebalancing case is vacuous", fetches, res.MigratedVertices)
		}
	})

	t.Run("session", func(t *testing.T) {
		// DriftTouched above 1 leaves the fallback to the modularity drift,
		// which this stream crosses on some batches and not on others.
		stream := randomStream(lfr, 7, 8, 4, 0.3)
		var run sessionRun
		fetches, carried := withFetchOracle(t, func() {
			run = runSessionBatches(t, lfr, Options{P: 3, DriftQ: 0.002, DriftTouched: 1.5}, stream, true)
		})
		fell := 0
		for _, f := range run.Fallbacks {
			if f {
				fell++
			}
		}
		if fell == 0 || fell == len(run.Fallbacks) {
			t.Fatalf("%d of %d batches fell back: want a mix of incremental batches and drift fallbacks", fell, len(run.Fallbacks))
		}
		if fetches == 0 || carried == 0 {
			t.Fatalf("fetches=%d carried=%d: session fetches not exercised", fetches, carried)
		}
	})
}

// TestFetchWireVolume pins the stage-1 fetch traffic of a fixed graph
// against the full refetch's, iteration by iteration. The first fetch of a
// stage subscribes to the whole reference set, so it ships the oracle's
// bytes plus one empty drop list (one byte) per peer frame; later fetches
// ship only new and dropped ids and the changed aggregates.
func TestFetchWireVolume(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(400, 0.25, 93))
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	layout, err := partition.Build(g, partition.Options{P: p, Kind: partition.Delegate, DHigh: 40})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := (Options{P: p, DHigh: 40}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// Per rank, per iteration: bytes sent by the fetch and by the oracle.
	var got, ref [p][]int64
	err = comm.RunWorld(p, func(c comm.Comm) error {
		r := c.Rank()
		s := newStage(c, layout.Parts[r], opt)
		defer s.close()
		sent := func() int64 { return c.Stats().Snapshot().BytesSent }
		for iter := 0; iter < opt.MaxInnerIters; iter++ {
			b0 := sent()
			if err := s.fetchCommunityInfo(); err != nil {
				return err
			}
			b1 := sent()
			if _, err := checkFetchAgainstRef(s); err != nil {
				return err
			}
			got[r] = append(got[r], b1-b0)
			ref[r] = append(ref[r], sent()-b1)
			props, movedLocal := s.sweep()
			hubMoved, err := s.delegateExchange(props)
			if err != nil {
				return err
			}
			if err := s.ghostSwap(); err != nil {
				return err
			}
			if err := s.flushDeltas(); err != nil {
				return err
			}
			moved, err := comm.AllreduceInt64Sum(c, int64(movedLocal+hubMoved))
			if err != nil {
				return err
			}
			if moved == 0 {
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var gotSum, refSum int64
	for r := 0; r < p; r++ {
		if got[r][0] != ref[r][0]+p-1 {
			t.Errorf("rank %d first fetch: %d bytes, oracle %d: want oracle + %d", r, got[r][0], ref[r][0], p-1)
		}
		for i := range got[r] {
			gotSum += got[r][i]
			refSum += ref[r][i]
			if i > 0 && got[r][i] >= ref[r][i] {
				t.Errorf("rank %d iteration %d: %d bytes, oracle %d: want fewer", r, i+1, got[r][i], ref[r][i])
			}
		}
	}
	const wantGot, wantRef = 25552, 49251
	if gotSum != wantGot || refSum != wantRef {
		t.Errorf("stage-1 fetch bytes over %d iterations: %d (oracle %d), pinned %d (oracle %d)",
			len(got[0]), gotSum, refSum, wantGot, wantRef)
	}
	t.Logf("stage-1 fetch wire volume over %d iterations: %d B, full refetch %d B (%.1f%%)",
		len(got[0]), gotSum, refSum, 100*float64(gotSum)/float64(refSum))
}

// ---------------------------------------------------------------------------
// Frame validation: request leg (owner side) and answer leg (subscriber
// side).

// fetchOwner is rank 0 of 2 over an 8-id space, so it owns communities 0,
// 2, 4 and 6 (bit c/2 of a subscriber's bitset). Rank 1 already subscribes
// to 2 and 6; 6 and 0 are dirty.
func fetchOwner() *stage {
	return &stage{
		p: 2, rnk: 0, n: 8,
		ownTot:  []float64{1.5, 0, 2.5, 0, 3.5, 0, 4.5, 0},
		ownSize: []int32{1, 0, 2, 0, 3, 0, 4, 0},
		subBits: [][]uint64{{0}, {1<<1 | 1<<3}},
		dirty:   []int{6, 0},
	}
}

// fetchRequest encodes a request frame as fetchCommunityInfo sends it.
func fetchRequest(subs, unsubs []int) []byte {
	b := wire.NewBuffer(0)
	b.PutInts(subs)
	b.PutInts(unsubs)
	return b.Bytes()
}

func TestFetchRequestAnswers(t *testing.T) {
	s := fetchOwner()
	b := wire.NewBuffer(0)
	work, err := s.answerSubscriptions(1, fetchRequest([]int{4, 0}, []int{2}), b)
	if err != nil {
		t.Fatal(err)
	}
	if work != 3+2 {
		t.Errorf("work = %d, want 3 ids + 2 dirty entries", work)
	}
	if got, want := s.subBits[1][0], uint64(1<<2|1<<0|1<<3); got != want {
		t.Errorf("subscriptions = %b, want %b (2 dropped, 4 and 0 added)", got, want)
	}
	// Positional answers for 4 and 0, then a push for dirty 6 only: 0 is
	// dirty too, but its subscription is new and already answered.
	want := wire.NewBuffer(0)
	want.PutF64(3.5)
	want.PutVarint(3)
	want.PutF64(1.5)
	want.PutVarint(1)
	want.PutVarint(6)
	want.PutF64(4.5)
	want.PutVarint(4)
	if string(b.Bytes()) != string(want.Bytes()) {
		t.Errorf("answer = %x, want %x", b.Bytes(), want.Bytes())
	}
}

// fetchReceiver is rank 0 of 2 that subscribes to 7 at rank 1 (which
// owns the odd ids) and has just asked it for 3 and 5.
func fetchReceiver() *stage {
	s := &stage{
		p: 2, rnk: 0, n: 8,
		tot: make([]float64, 8), size: make([]int32, 8), cached: make([]bool, 8),
		subs: [][]int{nil, {3, 5}},
	}
	s.cached[7] = true
	return s
}

// fetchAnswer encodes an answer frame: (tot, size) pairs, then (id, tot,
// size) pushes.
func fetchAnswer(pos [][2]float64, pushes [][3]float64) []byte {
	b := wire.NewBuffer(0)
	for _, a := range pos {
		b.PutF64(a[0])
		b.PutVarint(int64(a[1]))
	}
	for _, a := range pushes {
		b.PutVarint(int64(a[0]))
		b.PutF64(a[1])
		b.PutVarint(int64(a[2]))
	}
	return b.Bytes()
}

func TestFetchAnswerInstalls(t *testing.T) {
	s := fetchReceiver()
	n, err := s.applyFetchAnswer(1, fetchAnswer([][2]float64{{3, 1}, {5, 2}}, [][3]float64{{7, 9, 4}}))
	if err != nil || n != 3 {
		t.Fatalf("applyFetchAnswer = (%d, %v), want (3, nil)", n, err)
	}
	for c, want := range map[int]aggRef{3: {3, 1}, 5: {5, 2}, 7: {9, 4}} {
		if !s.cached[c] || s.tot[c] != want.tot || s.size[c] != want.size {
			t.Errorf("community %d: cached=%v (%v, %d), want (%v, %d)", c, s.cached[c], s.tot[c], s.size[c], want.tot, want.size)
		}
	}
}

// TestFetchFramesRejectMalformed feeds both legs frames a correct peer
// never sends: each must return an error wrapping comm.ErrMalformed.
func TestFetchFramesRejectMalformed(t *testing.T) {
	requests := map[string][]byte{
		"subscribe negative":    fetchRequest([]int{-2}, nil),
		"subscribe past n":      fetchRequest([]int{8}, nil),
		"subscribe foreign":     fetchRequest([]int{3}, nil),
		"subscribe held":        fetchRequest([]int{2}, nil),
		"subscribe twice":       fetchRequest([]int{4, 4}, nil),
		"drop not held":         fetchRequest(nil, []int{4}),
		"drop foreign":          fetchRequest(nil, []int{1}),
		"drop past n":           fetchRequest(nil, []int{1 << 40}),
		"subscribe and drop":    fetchRequest([]int{4}, []int{4}),
		"truncated subscribe":   fetchRequest([]int{4, 0}, nil)[:2],
		"missing drop list":     fetchRequest([]int{4}, nil)[:2],
		"count past frame":      {5, 0},
		"trailing bytes":        append(fetchRequest(nil, nil), 0),
		"truncated varint":      {0x80},
		"empty frame":           {},
		"drop count past frame": {0, 3, 2},
	}
	for name, frame := range requests {
		s := fetchOwner()
		if _, err := s.answerSubscriptions(1, frame, wire.NewBuffer(0)); !errors.Is(err, comm.ErrMalformed) {
			t.Errorf("request %s: err = %v, want one wrapping comm.ErrMalformed", name, err)
		}
	}
	answers := map[string][]byte{
		"short positional":  fetchAnswer([][2]float64{{3, 1}}, nil),
		"truncated push":    fetchAnswer([][2]float64{{3, 1}, {5, 2}}, [][3]float64{{7, 9, 4}})[:30],
		"push not owned":    fetchAnswer([][2]float64{{3, 1}, {5, 2}}, [][3]float64{{2, 9, 4}}),
		"push past n":       fetchAnswer([][2]float64{{3, 1}, {5, 2}}, [][3]float64{{9, 9, 4}}),
		"push negative":     fetchAnswer([][2]float64{{3, 1}, {5, 2}}, [][3]float64{{-1, 9, 4}}),
		"push unsubscribed": fetchAnswer([][2]float64{{3, 1}, {5, 2}}, [][3]float64{{1, 9, 4}}),
	}
	for name, frame := range answers {
		s := fetchReceiver()
		if _, err := s.applyFetchAnswer(1, frame); !errors.Is(err, comm.ErrMalformed) {
			t.Errorf("answer %s: err = %v, want one wrapping comm.ErrMalformed", name, err)
		}
	}
}

// FuzzFetchFrames feeds arbitrary request bytes to the owner side and
// arbitrary answer bytes to the subscriber side: each must return an
// error wrapping comm.ErrMalformed or apply the whole frame, never panic.
func FuzzFetchFrames(f *testing.F) {
	f.Add(fetchRequest([]int{4, 0}, []int{2}), fetchAnswer([][2]float64{{3, 1}, {5, 2}}, [][3]float64{{7, 9, 4}}))
	f.Add(fetchRequest([]int{3}, nil), fetchAnswer([][2]float64{{3, 1}}, nil))
	f.Add(fetchRequest(nil, []int{4}), fetchAnswer([][2]float64{{3, 1}, {5, 2}}, [][3]float64{{2, 9, 4}}))
	f.Add(fetchRequest([]int{4, 4}, nil), []byte{})
	f.Add([]byte{0x80}, []byte{0x80})
	f.Fuzz(func(t *testing.T, req, ans []byte) {
		s := fetchOwner()
		before := s.subBits[1][0]
		b := wire.NewBuffer(0)
		if _, err := s.answerSubscriptions(1, req, b); err != nil {
			if !errors.Is(err, comm.ErrMalformed) {
				t.Fatalf("request: untyped error: %v", err)
			}
		} else {
			// Applied: the bits moved by exactly the frame's lists, and
			// the answer holds one entry per new subscription followed by
			// one push per dirty community still subscribed.
			rd := wire.NewReader(req)
			subs, unsubs := rd.Ints(), rd.Ints()
			want := before
			for _, c := range unsubs {
				want &^= 1 << (c / 2)
			}
			pushes := 0
			for _, c := range s.dirty {
				if want&(1<<(c/2)) != 0 {
					pushes++
				}
			}
			for _, c := range subs {
				want |= 1 << (c / 2)
			}
			if s.subBits[1][0] != want {
				t.Fatalf("subscriptions %b, want %b", s.subBits[1][0], want)
			}
			ar := wire.NewReader(b.Bytes())
			for _, c := range subs {
				if tot, size := ar.F64(), ar.Varint(); tot != s.ownTot[c] || int32(size) != s.ownSize[c] {
					t.Fatalf("answer for %d: (%v, %d)", c, tot, size)
				}
			}
			for i := 0; i < pushes; i++ {
				ar.Varint()
				ar.F64()
				ar.Varint()
			}
			if ar.Err() != nil || ar.Remaining() != 0 {
				t.Fatalf("answer frame of %d bytes does not hold %d answers and %d pushes", len(b.Bytes()), len(subs), pushes)
			}
		}

		r := fetchReceiver()
		n, err := r.applyFetchAnswer(1, ans)
		if err != nil {
			if !errors.Is(err, comm.ErrMalformed) {
				t.Fatalf("answer: untyped error: %v", err)
			}
			return
		}
		for c, ok := range r.cached {
			if ok && c != 3 && c != 5 && c != 7 {
				t.Fatalf("cached community %d, which rank 0 never subscribed to", c)
			}
		}
		if n < 2 || !r.cached[3] || !r.cached[5] {
			t.Fatalf("applied %d entries without both positional answers", n)
		}
	})
}

// ---------------------------------------------------------------------------
// Delta-flush frames.

// deltaFrame encodes (community, Σtot delta, size delta) records as
// flushDeltas sends them.
func deltaFrame(recs ...deltaRec) []byte {
	b := wire.NewBuffer(0)
	for _, d := range recs {
		b.PutVarint(int64(d.c))
		b.PutF64(d.dw)
		b.PutVarint(int64(d.dn))
	}
	return b.Bytes()
}

// deltaStage is rank 0 of 2 over an 8-id space: it owns the even ids.
func deltaStage() *stage {
	return &stage{p: 2, rnk: 0, n: 8, deltaSrc: make([][]deltaRec, 2)}
}

func TestDeltaFrameRejectsMalformed(t *testing.T) {
	good := deltaRec{c: 2, dw: 1.5, dn: 1}
	s := deltaStage()
	if err := s.decodeDeltaFrame(1, deltaFrame(good, deltaRec{c: 6, dw: -1})); err != nil || len(s.deltaSrc[1]) != 2 {
		t.Fatalf("well-formed frame: err = %v, %d records", err, len(s.deltaSrc[1]))
	}
	cases := map[string][]byte{
		"negative":   deltaFrame(deltaRec{c: -2, dw: 1}),
		"past n":     deltaFrame(deltaRec{c: 8, dw: 1}),
		"foreign":    deltaFrame(good, deltaRec{c: 3, dw: 1}),
		"truncated":  deltaFrame(good)[:5],
		"bad varint": {0x80},
	}
	for name, frame := range cases {
		s := deltaStage()
		if err := s.decodeDeltaFrame(1, frame); !errors.Is(err, comm.ErrMalformed) {
			t.Errorf("%s: err = %v, want one wrapping comm.ErrMalformed", name, err)
		}
	}
}

// FuzzDeltaFrame feeds arbitrary bytes to the delta-flush decoder: it must
// return an error wrapping comm.ErrMalformed or buffer every record of the
// frame, and never buffer a community this rank does not own.
func FuzzDeltaFrame(f *testing.F) {
	f.Add(deltaFrame(deltaRec{c: 2, dw: 1.5, dn: 1}, deltaRec{c: 6, dw: -1}))
	f.Add(deltaFrame(deltaRec{c: 3, dw: 1}))
	f.Add(deltaFrame(deltaRec{c: -2, dw: 1}))
	f.Add(deltaFrame(deltaRec{c: 2, dw: 1})[:4])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		s := deltaStage()
		err := s.decodeDeltaFrame(1, frame)
		for _, d := range s.deltaSrc[1] {
			if d.c < 0 || int(d.c) >= s.n || int(d.c)%s.p != s.rnk {
				t.Fatalf("buffered a record for community %d", d.c)
			}
		}
		if err != nil {
			if !errors.Is(err, comm.ErrMalformed) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		recs := 0
		rd := wire.NewReader(frame)
		for rd.Remaining() > 0 {
			rd.Varint()
			rd.F64()
			rd.Varint()
			recs++
		}
		if len(s.deltaSrc[1]) != recs {
			t.Fatalf("buffered %d records, frame holds %d", len(s.deltaSrc[1]), recs)
		}
	})
}

// ---------------------------------------------------------------------------
// Hub-proposal agreement frames.

// hubFrame encodes (improvement, target) proposals as delegateExchange
// sends them.
func hubFrame(props ...hubProposal) []byte {
	b := wire.NewBuffer(0)
	for _, pr := range props {
		b.PutF64(pr.improvement)
		b.PutVarint(int64(pr.target))
	}
	return b.Bytes()
}

// hubStage is rank 0 of 2 over an 8-id space with hubs 2 and 5, each in
// its own community, under the simple heuristic (which lets a hub move to
// a larger label, so a target ≥ n would reach the index).
func hubStage() *stage {
	n := 8
	s := &stage{
		p: 2, rnk: 0, n: n, opt: Options{Heuristic: HeuristicSimple},
		sg:   &partition.Subgraph{Hubs: []int{2, 5}, HubWDeg: []float64{3, 4}},
		comm: []int32{0, 1, 2, 3, 4, 5, 6, 7},
		tot:  make([]float64, n), size: make([]int32, n), cached: make([]bool, n),
		deltaW: make([]float64, n), deltaN: make([]int32, n), deltaMark: make([]bool, n),
	}
	for c := range s.cached {
		s.cached[c], s.tot[c], s.size[c] = true, 1, 1
	}
	return s
}

func TestCombineHubProposalsPoisonsMismatch(t *testing.T) {
	two := hubFrame(hubProposal{1, 3}, hubProposal{negInf, 5})
	one := hubFrame(hubProposal{1, 3})
	for name, ops := range map[string][2][]byte{
		"short b":     {two, one},
		"short a":     {one, two},
		"poisoned":    {nil, two},
		"cut varint":  {two, two[:len(two)-1]},
		"both poison": {nil, nil},
	} {
		if got := combineHubProposals(ops[0], ops[1]); len(got) != 0 {
			t.Errorf("%s: combine = %x, want the empty poison frame", name, got)
		}
	}
}

func TestHubWinnersRejectMalformed(t *testing.T) {
	s := hubStage()
	moved, err := s.applyHubWinners(hubFrame(hubProposal{1, 7}, hubProposal{negInf, 5}))
	if err != nil || moved != 1 || s.comm[2] != 7 {
		t.Fatalf("well-formed frame: moved=%d err=%v hub label %d", moved, err, s.comm[2])
	}
	for name, frame := range map[string][]byte{
		"poison":          nil,
		"one record":      hubFrame(hubProposal{1, 3}),
		"three records":   hubFrame(hubProposal{1, 3}, hubProposal{1, 3}, hubProposal{1, 3}),
		"target negative": hubFrame(hubProposal{1, -1}, hubProposal{1, 3}),
		"target past n":   hubFrame(hubProposal{negInf, 2}, hubProposal{1, 8}),
		"target huge":     hubFrame(hubProposal{1, 1 << 40}, hubProposal{1, 3}),
		"truncated":       hubFrame(hubProposal{1, 3}, hubProposal{1, 3})[:12],
	} {
		s := hubStage()
		if _, err := s.applyHubWinners(frame); !errors.Is(err, comm.ErrMalformed) {
			t.Errorf("%s: err = %v, want one wrapping comm.ErrMalformed", name, err)
		}
	}
}

// FuzzHubProposals combines two arbitrary proposal frames and applies the
// result: the combine must never panic, and the apply must return an error
// wrapping comm.ErrMalformed or move hubs only to labels in [0, n).
func FuzzHubProposals(f *testing.F) {
	f.Add(hubFrame(hubProposal{1, 7}, hubProposal{negInf, 5}), hubFrame(hubProposal{2, 3}, hubProposal{0.5, 1}))
	f.Add(hubFrame(hubProposal{1, -1}, hubProposal{1, 3}), hubFrame(hubProposal{1, 8}, hubProposal{1, 3}))
	f.Add(hubFrame(hubProposal{1, 3}), hubFrame(hubProposal{1, 3}, hubProposal{1, 3}))
	f.Add([]byte{}, []byte{0x80})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		win := combineHubProposals(a, b)
		s := hubStage()
		_, err := s.applyHubWinners(win)
		for v, c := range s.comm {
			if c < 0 || int(c) >= s.n {
				t.Fatalf("planted out-of-range label %d at vertex %d", c, v)
			}
		}
		if err != nil && !errors.Is(err, comm.ErrMalformed) {
			t.Fatalf("untyped error: %v", err)
		}
	})
}
