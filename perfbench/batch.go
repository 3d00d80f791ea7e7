package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/louvain"
	"repro/internal/partition"
	"repro/internal/quality"
	"repro/internal/trace"
)

// setUps is how many times a run repeats its set-up; setup_s is the median.
const setUps = 5

// minSolves is the fewest solves a timed part makes, however short --seconds.
const minSolves = 3

// batchSpec is a batch workload: a graph family whose reference input is
// solved from its .sbin file again and again.
type batchSpec struct {
	name      string
	kind      partition.Kind
	refSeed   int64 // generator seed of the timed reference input
	outOfCore bool  // OpenShardedFile → BuildStreaming instead of ReadBinarySharded → Build
	// generate makes the graph and, where the family plants one, its true
	// partition (nil otherwise).
	generate func(seed int64) (*graph.Graph, graph.Membership, error)
}

var rmatDelegate = batchSpec{
	name: "rmat-delegate", kind: partition.Delegate, refSeed: 7,
	generate: func(seed int64) (*graph.Graph, graph.Membership, error) {
		cfg := gen.Graph500RMAT(16, seed)
		cfg.EdgeFactor = 8
		g, err := gen.RMAT(cfg)
		return g, nil, err
	},
}

var lfrOutOfCore = batchSpec{
	name: "lfr-1d-oocore", kind: partition.OneD, refSeed: 11, outOfCore: true,
	generate: func(seed int64) (*graph.Graph, graph.Membership, error) {
		return gen.LFR(gen.DefaultLFR(100000, 0.3, seed))
	},
}

func (b batchSpec) options() core.Options {
	return core.Options{P: ranks, Partitioning: b.kind}
}

// setUp generates the input with the given seed and writes it as a v2 .sbin.
func (b batchSpec) setUp(path string, seed int64) (graph.Membership, time.Duration, error) {
	t0 := trace.Now()
	g, truth, err := b.generate(seed)
	if err != nil {
		return nil, 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, 0, err
	}
	bw := bufio.NewWriter(f)
	if err := graph.WriteBinaryShardedV2(bw, g, 16); err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	return truth, trace.Since(t0), nil
}

// loadCost is what the graph and partition layers cost in one load.
type loadCost struct {
	read, build           time.Duration
	readAlloc, buildAlloc uint64 // bytes; measured only when asked
}

// load runs the graph and partition layers: the file becomes a Layout.
func (b batchSpec) load(path string, withAlloc bool) (*partition.Layout, loadCost, error) {
	var c loadCost
	var a0 uint64
	if withAlloc {
		a0 = totalAlloc()
	}
	t0 := trace.Now()
	popt := partition.Options{P: ranks, Kind: b.kind}
	var build func() (*partition.Layout, error)
	if b.outOfCore {
		s, closer, err := graph.OpenShardedFile(path)
		if err != nil {
			return nil, c, err
		}
		defer closer.Close()
		popt.DHigh = core.DefaultDHigh(ranks, s.NumVertices(), s.NumArcs())
		build = func() (*partition.Layout, error) { return partition.BuildStreaming(s, popt) }
	} else {
		g, err := readGraph(path)
		if err != nil {
			return nil, c, err
		}
		popt.DHigh = core.DefaultDHigh(ranks, g.NumVertices(), g.NumArcs())
		build = func() (*partition.Layout, error) { return partition.Build(g, popt) }
	}
	t1 := trace.Now()
	c.read = t1.Sub(t0)
	if withAlloc {
		a1 := totalAlloc()
		c.readAlloc, a0 = a1-a0, a1
	}
	layout, err := build()
	c.build = trace.Since(t1)
	if withAlloc {
		c.buildAlloc = totalAlloc() - a0
	}
	return layout, c, err
}

// solve is one untraced solve, from file to membership.
func (b batchSpec) solve(path string) (*core.Result, time.Duration, error) {
	t0 := trace.Now()
	layout, _, err := b.load(path, false)
	if err != nil {
		return nil, 0, err
	}
	res, err := core.RunLayout(layout, b.options())
	return res, trace.Since(t0), err
}

func readGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadBinarySharded(f, 0)
}

// solveRecord is what a run keeps of each solve: enough to check it
// against the first solve after the timed part, without keeping every
// membership alive while the heap is sampled.
type solveRecord struct {
	q        float64
	hash     uint64
	simNS    int64
	commSent int64
}

func recordOf(res *core.Result) solveRecord {
	return solveRecord{
		q:        res.Modularity,
		hash:     membershipHash(res.Membership),
		simNS:    int64(simTime(res)),
		commSent: res.CommStats.TotalBytesSent(),
	}
}

// simTime is the deterministic simulated parallel time of a solve.
func simTime(res *core.Result) time.Duration {
	return res.Stage1Sim + res.Stage2Sim + res.Stage1CommSim + res.Stage2CommSim
}

func runBatch(r *run, b batchSpec) error {
	path := filepath.Join(r.dataDir, b.name+".sbin")
	var truth graph.Membership
	var setups []time.Duration
	for i := 0; i < setUps; i++ {
		t, d, err := b.setUp(path, b.refSeed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		truth, setups = t, append(setups, d)
	}
	if r.traced {
		if err := batchTraced(r, b, path); err != nil {
			return err
		}
		return heldOut(r, b)
	}
	first, g, err := batchTimed(r, b, path)
	if err != nil {
		return err
	}
	ss := secs(setups)
	r.put("setup_s", median(ss), "s")
	fmt.Printf("set-up: %d set-ups, seconds %.3f\n", len(ss), ss)
	// nmi compares with the planted partition where the family plants one,
	// and otherwise with the sequential reference's partition of the graph.
	ref := truth
	if ref == nil {
		lr := runLouvain(g)
		ref = lr.m
		fmt.Printf("reference: sequential Louvain in %.3f s, modularity %.6f; nmi is taken against its partition\n",
			lr.wall.Seconds(), lr.q)
	}
	nmi, err := quality.NMI(first.Membership, ref)
	r.attempt(err)
	r.put("nmi", nmi, "ratio")
	return heldOut(r, b)
}

// batchTimed is the untraced timed part: solves until --seconds have
// passed, then checks every solve against the first. It returns the first
// solve and the input graph it was checked on.
func batchTimed(r *run, b batchSpec, path string) (*core.Result, *graph.Graph, error) {
	var walls []time.Duration
	var recs []solveRecord
	var first *core.Result
	stopHeap := heapHighWater()
	start := trace.Now()
	for len(walls) < minSolves || trace.Since(start) < r.seconds {
		res, wall, err := b.solve(path)
		r.attempt(err)
		if err != nil {
			stopHeap()
			return nil, nil, err
		}
		if first == nil {
			first = res
		}
		walls = append(walls, wall)
		recs = append(recs, recordOf(res))
	}
	peak := stopHeap()

	// The check graph is loaded only now, so it never counts toward the
	// sampled heap.
	g, err := readGraph(path)
	if err != nil {
		return nil, nil, err
	}
	checkSolves(r, g, first, recs)
	r.put("solve_s", median(secs(walls)), "s")
	r.put("sim_time_s", time.Duration(recs[0].simNS).Seconds(), "sim_s")
	r.put("comm_mb", mb(recs[0].commSent), "MB")
	r.put("peak_heap_mb", mb(int64(peak)), "MB")
	r.put("modularity", first.Modularity, "Q")
	ws := secs(walls)
	fmt.Printf("timed: %d solves in %.1f s (min %.3f, median %.3f, max %.3f s); stage-1 iterations %d, levels %d, hubs %d\n",
		len(walls), trace.Since(start).Seconds(), slices.Min(ws), median(ws), slices.Max(ws), first.Stage1Iters, first.OuterLevels, first.HubCount)
	return first, g, nil
}

// checkSolves recomputes the modularity of the first solve's membership on
// g and holds every solve to it: the same membership hash, a reported Q
// within modTol of the recomputed one, and the same simulated time and
// wire bytes.
func checkSolves(r *run, g *graph.Graph, first *core.Result, recs []solveRecord) {
	r.check(len(first.Membership) == g.NumVertices(), "membership covers %d of %d vertices", len(first.Membership), g.NumVertices())
	q := graph.Modularity(g, first.Membership)
	for i, rec := range recs {
		r.check(math.Abs(rec.q-q) <= modTol, "solve %d: reported Q %.12f, recomputed %.12f", i, rec.q, q)
		r.check(rec.hash == recs[0].hash, "solve %d: membership hash %x, first solve %x", i, rec.hash, recs[0].hash)
		r.check(rec.simNS == recs[0].simNS && rec.commSent == recs[0].commSent,
			"solve %d: sim %d ns / %d bytes, first solve %d ns / %d bytes", i, rec.simNS, rec.commSent, recs[0].simNS, recs[0].commSent)
	}
}

// heldOut solves the seed's own input once and checks it, so every seed
// exercises a graph no claim was tuned on. Its figures are printed, not
// gated: they move with the input, not only with the code.
func heldOut(r *run, b batchSpec) error {
	seed := b.refSeed + 1 + r.seed
	path := filepath.Join(r.dataDir, b.name+"-heldout.sbin")
	ref, _, err := b.setUp(path, seed)
	if err != nil {
		return fmt.Errorf("held-out set-up: %w", err)
	}
	res, wall, err := b.solve(path)
	r.attempt(err)
	if err != nil {
		return err
	}
	g, err := readGraph(path)
	if err != nil {
		return err
	}
	q := graph.Modularity(g, res.Membership)
	r.check(math.Abs(res.Modularity-q) <= modTol, "held-out: reported Q %.12f, recomputed %.12f", res.Modularity, q)
	if ref == nil {
		ref = runLouvain(g).m
	}
	nmi, err := quality.NMI(res.Membership, ref)
	r.attempt(err)
	fmt.Printf("held-out input: generator seed %d, solve_s=%.4f modularity=%.6f nmi=%.4f comm_mb=%.3f sim_time_s=%.4f stage1_iters=%d levels=%d hubs=%d\n",
		seed, wall.Seconds(), res.Modularity, nmi, mb(res.CommStats.TotalBytesSent()),
		simTime(res).Seconds(), res.Stage1Iters, res.OuterLevels, res.HubCount)
	return nil
}

// tracedSolve is one solve with every layer boundary traced: spans around
// the graph and partition calls, and each rank's core.RunRankLayout inside
// comm.RunWorld behind a countingComm.
type tracedSolve struct {
	wall    time.Duration
	cost    loadCost
	ranks   []*core.RankResult
	comms   []*countingComm
	colls   map[string]trace.CollectiveStat
	hash    uint64
	stage1  time.Duration // max over ranks
	stage2  time.Duration
	blocked []time.Duration
}

func (b batchSpec) solveTraced(path string, rc *recorder) (*tracedSolve, error) {
	root := rc.open("solve", -1, 0)
	t0 := trace.Now()
	sp := rc.open("graph+partition", -1, root.id)
	layout, cost, err := b.load(path, true)
	sp.close()
	if err != nil {
		return nil, err
	}
	rc.add(0, sp.id, "graph.read", -1, sp.start, sp.start.Add(cost.read))
	rc.add(0, sp.id, "partition.build", -1, sp.start.Add(cost.read), sp.start.Add(cost.read+cost.build))

	ts := &tracedSolve{
		cost:  cost,
		ranks: make([]*core.RankResult, ranks),
		comms: make([]*countingComm, ranks),
	}
	opt := b.options()
	opt.DHigh = layout.DHigh
	trace.ResetCollectiveStats()
	trace.EnableCollectiveStats(true)
	err = comm.RunWorld(ranks, func(c comm.Comm) error {
		rk := c.Rank()
		rs := rc.open("core.rank", rk, root.id)
		dc := &countingComm{Comm: c, rc: rc, parent: rs.id}
		ts.comms[rk] = dc
		rr, err := core.RunRankLayout(dc, layout.Parts[rk], opt)
		rs.close()
		if err != nil {
			return err
		}
		ts.ranks[rk] = rr
		// Stage 1 starts with the rank; stage 2 follows it. Both spans are
		// placed from the rank's own stage durations.
		rc.add(0, rs.id, "core.stage1", rk, rs.start, rs.start.Add(rr.Stage1Time))
		rc.add(0, rs.id, "core.stage2", rk, rs.start.Add(rr.Stage1Time), rs.start.Add(rr.Stage1Time+rr.Stage2Time))
		return nil
	})
	trace.EnableCollectiveStats(false)
	ts.colls = trace.CollectiveSnapshot()
	ts.wall = trace.Since(t0)
	root.close()
	if err != nil {
		return nil, err
	}
	m := make(graph.Membership, layout.Parts[0].GlobalVertices)
	for rk, rr := range ts.ranks {
		for i, v := range rr.Tracked {
			m[v] = rr.Labels[i]
		}
		ts.stage1 = max(ts.stage1, rr.Stage1Time)
		ts.stage2 = max(ts.stage2, rr.Stage2Time)
		ts.blocked = append(ts.blocked, ts.comms[rk].blocked)
	}
	m.Normalize()
	ts.hash = membershipHash(m)
	return ts, nil
}

// batchTraced alternates untraced and traced solves until --seconds have
// passed and prints the per-layer metrics, the reconciliations and the
// tracing overhead.
func batchTraced(r *run, b batchSpec, path string) error {
	rc := newRecorder()
	var plain []*core.Result
	var plainWalls []time.Duration
	var recs []solveRecord
	var traced []*tracedSolve
	start := trace.Now()
	for len(traced) < 2 || trace.Since(start) < r.seconds {
		res, wall, err := b.solve(path)
		r.attempt(err)
		if err != nil {
			return err
		}
		plain, plainWalls, recs = append(plain, res), append(plainWalls, wall), append(recs, recordOf(res))
		ts, err := b.solveTraced(path, rc)
		r.attempt(err)
		if err != nil {
			return err
		}
		traced = append(traced, ts)
	}
	first := plain[0]
	g, err := readGraph(path)
	if err != nil {
		return err
	}
	checkSolves(r, g, first, recs)

	// The traced solves must reproduce the untraced ones bit for bit, and
	// the decorator's per-rank counts must equal the transport's census.
	for i, ts := range traced {
		r.check(ts.hash == recs[0].hash, "traced solve %d: membership hash %x, untraced %x", i, ts.hash, recs[0].hash)
		r.check(ts.ranks[0].Modularity == first.Modularity, "traced solve %d: Q %.17g, untraced %.17g", i, ts.ranks[0].Modularity, first.Modularity)
		for rk, dc := range ts.comms {
			want := first.CommStats.PerRank[rk]
			r.check(dc.bytes.Load() == want.BytesSent && dc.msgs.Load() == want.MsgsSent,
				"traced solve %d rank %d: decorator %d msgs / %d bytes, CommStats %d / %d",
				i, rk, dc.msgs.Load(), dc.bytes.Load(), want.MsgsSent, want.BytesSent)
		}
	}

	lr := runLouvain(g)
	putLayers(r, first, plain, traced, lr)
	reconcile(first, plainWalls, traced)
	spans := filepath.Join(r.traceDir, fmt.Sprintf("%s-seed%d.jsonl", b.name, r.seed))
	n, err := rc.dump(spans)
	if err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", n, spans)
	return nil
}

type louvainRun struct {
	wall time.Duration
	q    float64
	m    graph.Membership
}

// runLouvain runs the single-threaded sequential reference on g.
func runLouvain(g *graph.Graph) louvainRun {
	t0 := trace.Now()
	res := louvain.Run(g, louvain.Options{})
	return louvainRun{wall: trace.Since(t0), q: res.Modularity, m: res.Membership}
}

func putLayers(r *run, first *core.Result, plain []*core.Result, traced []*tracedSolve, lr louvainRun) {
	pick := func(fn func(ts *tracedSolve) float64) float64 {
		xs := make([]float64, len(traced))
		for i, ts := range traced {
			xs[i] = fn(ts)
		}
		return median(xs)
	}
	pickPlain := func(fn func(res *core.Result) time.Duration) float64 {
		xs := make([]float64, len(plain))
		for i, res := range plain {
			xs[i] = fn(res).Seconds()
		}
		return median(xs)
	}
	r.put("graph.read_s", pick(func(ts *tracedSolve) float64 { return ts.cost.read.Seconds() }), "s")
	r.put("graph.alloc_mb", pick(func(ts *tracedSolve) float64 { return mb(int64(ts.cost.readAlloc)) }), "MB")
	r.put("partition.build_s", pick(func(ts *tracedSolve) float64 { return ts.cost.build.Seconds() }), "s")
	r.put("partition.alloc_mb", pick(func(ts *tracedSolve) float64 { return mb(int64(ts.cost.buildAlloc)) }), "MB")
	r.put("partition.hubs", float64(first.HubCount), "count")
	maxGhosts := 0
	for _, gh := range first.Census.GhostsPerRank {
		maxGhosts = max(maxGhosts, gh)
	}
	r.put("partition.max_ghosts", float64(maxGhosts), "count")
	r.put("partition.imbalance_w", first.Census.ImbalanceW(), "ratio")

	r.put("core.stage1_s", pickPlain(func(res *core.Result) time.Duration { return res.Stage1Time }), "s")
	r.put("core.stage1_iters", float64(first.Stage1Iters), "count")
	phases := []struct {
		name string
		ph   trace.Phase
	}{
		{"core.find_best", trace.FindBest},
		{"core.delegates", trace.BroadcastDelegates},
		{"core.ghost_swap", trace.SwapGhost},
		{"core.other", trace.Other},
	}
	for _, p := range phases {
		r.put(p.name+"_s", pickPlain(func(res *core.Result) time.Duration { return res.Breakdown.Durations[p.ph] }), "s")
		r.put(p.name+"_sim_s", first.BusyBreakdown.Durations[p.ph].Seconds(), "sim_s")
	}
	r.put("core.stage2_s", pickPlain(func(res *core.Result) time.Duration { return res.Stage2Time }), "s")
	r.put("core.levels", float64(first.OuterLevels), "count")
	r.put("core.stage2_sim_s", first.Stage2Sim.Seconds(), "sim_s")
	r.put("core.balance_ratio", first.BalanceRatio, "ratio")
	for rk, rr := range traced[0].ranks {
		r.put(fmt.Sprintf("core.work_units.r%d", rk), float64(rr.WorkUnits), "count")
	}

	for _, k := range []struct{ name, coll string }{
		{"alltoallv", "Alltoallv"}, {"allreduce", "Allreduce"}, {"allgather", "Allgather"},
	} {
		st := traced[0].colls[k.coll]
		r.put("comm."+k.name+".calls", float64(st.Calls), "count")
		r.put("comm."+k.name+".mb", mb(st.Bytes), "MB")
		r.put("comm."+k.name+"_s", pick(func(ts *tracedSolve) float64 {
			return time.Duration(ts.colls[k.coll].NS).Seconds()
		}), "s")
	}
	var msgs int64
	for _, dc := range traced[0].comms {
		msgs += dc.msgs.Load()
	}
	r.put("comm.msgs", float64(msgs), "count")
	r.put("comm.recv_blocked_max_s", pick(func(ts *tracedSolve) float64 {
		var m time.Duration
		for _, d := range ts.blocked {
			m = max(m, d)
		}
		return m.Seconds()
	}), "s")
	r.put("comm.recv_blocked_mean_s", pick(func(ts *tracedSolve) float64 {
		var s time.Duration
		for _, d := range ts.blocked {
			s += d
		}
		return s.Seconds() / float64(len(ts.blocked))
	}), "s")
	r.put("louvain.run_s", lr.wall.Seconds(), "s")
	r.put("louvain.modularity", lr.q, "Q")
	fmt.Printf("collectives (calls and payload bytes summed over ranks, one traced solve): %s\n",
		trace.FormatCollectiveSnapshot(traced[0].colls))
}

// reconcile prints how the traced layers add up to the solve, the per-rank
// bytes against the transport census, and the tracing overhead.
func reconcile(first *core.Result, plainWalls []time.Duration, traced []*tracedSolve) {
	ts := traced[0]
	for rk, dc := range ts.comms {
		fmt.Printf("reconcile bytes: rank %d decorator %d msgs / %d bytes, Result.CommStats %d msgs / %d bytes\n",
			rk, dc.msgs.Load(), dc.bytes.Load(), first.CommStats.PerRank[rk].MsgsSent, first.CommStats.PerRank[rk].BytesSent)
	}
	tracedWalls := make([]time.Duration, len(traced))
	for i, t := range traced {
		tracedWalls[i] = t.wall
		layers := t.cost.read + t.cost.build + t.stage1 + t.stage2
		fmt.Printf("reconcile time: traced solve %d: graph.read %.4f + partition.build %.4f + core.stage1 %.4f + core.stage2 %.4f = %.4f s of solve_s %.4f s (%.1f%%)\n",
			i, t.cost.read.Seconds(), t.cost.build.Seconds(), t.stage1.Seconds(), t.stage2.Seconds(),
			layers.Seconds(), t.wall.Seconds(), 100*layers.Seconds()/t.wall.Seconds())
	}
	tr, un := median(secs(tracedWalls)), median(secs(plainWalls))
	fmt.Printf("trace overhead: traced solve_s %.4f s (median of %d) - untraced solve_s %.4f s (median of %d) = %+.4f s (%+.1f%%)\n",
		tr, len(traced), un, len(plainWalls), tr-un, 100*(tr-un)/un)
}
