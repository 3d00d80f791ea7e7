package core

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/rebalance"
	"repro/internal/trace"
	"repro/internal/wire"
)

// stage is the per-rank runtime state of one clustering stage (with or
// without delegates — a stage without delegates simply has an empty hub
// list). Community IDs live in the stage's vertex-ID space; community c is
// owned by rank c mod P, which keeps the authoritative Σtot and size for it.
//
// All hot state is kept in dense arrays indexed by vertex/community ID (the
// stage's ID space has n = sg.GlobalVertices entries), as a real MPI
// implementation would; only entries for locally known vertices and locally
// referenced communities are meaningful.
type stage struct {
	c     comm.Comm
	sg    *partition.Subgraph
	opt   Options
	m2    float64
	gamma float64 // modularity resolution γ
	p     int
	rnk   int
	n     int // vertex-ID space size of this stage

	// comm holds the community label of every locally known vertex:
	// owned low vertices, hubs (replicated), and ghosts. Entries for
	// unknown vertices are -1.
	comm []int32

	// tot and size are cached community aggregates of the communities
	// locally known vertices reference, brought up to date by the
	// subscription fetch at the start of every iteration and adjusted
	// locally during the sweep (Gauss-Seidel within the rank). cached
	// marks the entries of the last fetch's reference set, which is also
	// the set of communities this rank subscribes to; cachedList lists
	// them in traversal order. refList is the scratch the next reference
	// set is built in (fetchCommunityInfo swaps the two).
	tot        []float64
	size       []int32
	cached     []bool
	cachedList []int
	refList    []int

	// subs[r] and unsubs[r] are the communities owned by rank r that this
	// rank started and stopped referencing since the previous fetch (the
	// request leg of fetchCommunityInfo); subs[r] also fixes the order of
	// r's positional answers.
	subs   [][]int
	unsubs [][]int

	// Owner side of the subscription fetch. subBits[r] holds one bit per
	// owned community (bit c/p): set while rank r subscribes to c. dirty
	// lists the owned communities named by a delta record applied since
	// the last fetch (dirtyMark dedups it); their values are pushed to the
	// subscribers at the next fetch. fetchErr holds the per-source errors
	// of the answer kernel.
	subBits   [][]uint64
	dirty     []int
	dirtyMark []bool
	fetchErr  []error

	// ownTot and ownSize are the authoritative aggregates for communities
	// owned by this rank (IDs ≡ rnk mod p), updated by the delta exchange.
	ownTot  []float64
	ownSize []int32

	// Pending aggregate deltas keyed by community, routed to owners at the
	// end of each iteration. deltaTouched drives O(touched) flush/reset;
	// deltaMark prevents duplicate entries when a delta transits zero.
	deltaW       []float64
	deltaN       []int32
	deltaMark    []bool
	deltaTouched []int

	// changed lists owned vertices whose label changed this iteration
	// (drives the ghost swap).
	changed []int

	// dense maps community IDs to their dense merged-graph vertex IDs;
	// populated by merge (-1 = not mapped). The backing array lives in ms
	// and is reused across merge levels.
	dense []int32

	// ms is the merge pipeline's pooled scratch (merge.go), created lazily
	// by the first merge and handed to the next level's stage by the
	// session's solve loop, so successive levels reuse the grown storage.
	ms *mergeScratch

	// rqBufs/rqFrames/rqReqs/rqPos are the resolveQueries stage scratch:
	// reply encode buffers and frame headers (the request leg uses
	// sendScratch; replies need their own set because the request frames
	// must stay intact while the streaming first leg is in flight), and
	// the per-rank routed queries and their original positions.
	rqBufs   []*wire.Buffer
	rqFrames [][]byte
	rqReqs   [][]int
	rqPos    [][]int

	// Intra-rank parallelism (pool.go). pool is nil on the serial path;
	// accs holds one gain accumulator per worker (index = worker ID), so
	// the parallel hub-proposal kernel needs no locking and the steady
	// state allocates no scratch.
	pool *workerPool
	accs []*gainAccumulator

	// Reusable communication scratch, one slot per peer rank: encode
	// buffers (Reset keeps their storage) and the frame headers handed to
	// Alltoallv. Each exchange resets and refills them; the transports
	// copy payloads on Send, so reuse after a collective returns is safe.
	sendBufs []*wire.Buffer
	frames   [][]byte

	// recvIn is the receive-side scratch handed to comm.AlltoallvInto: the
	// slice header and the self-copy backing array are reused across
	// exchanges, so steady-state iterations allocate nothing for them (the
	// peer slots are replaced by transport buffers each call).
	recvIn [][]byte

	// deltaSrc buffers flushDeltas records per source rank: the streaming
	// exchange decodes frames in arrival order, but Σtot is accumulated in
	// floating point, so the records are applied in rank order to keep the
	// sums bit-identical run to run (see docs/PERFORMANCE.md).
	deltaSrc [][]deltaRec

	// hubBuf is the reusable delegate-exchange encode buffer.
	hubBuf *wire.Buffer

	// props is the reusable hub-proposal slice returned by sweep, filled by
	// hubKernel over hubChunks chunks. The kernel closure is built once per
	// stage (the hub list is immutable) so the steady-state sweep allocates
	// nothing.
	props     []hubProposal
	hubKernel func(chunk, worker int)
	hubChunks int

	// Incremental-session hooks (session.go). All nil/empty in batch runs,
	// so the batch solver's behavior and message schedule are untouched.
	//
	// sweepFn, when set, replaces sweep() in the clustering loop (the
	// session points it at an active-set-restricted sweep). hubActive, when
	// non-nil, restricts hubKernel to the flagged hub indices — inactive
	// hubs propose negInf and therefore never move. movedHubs records the
	// hub indices delegateExchange moved this iteration (replicated: every
	// rank applies identical hub moves). onGhostChange is called by
	// ghostSwap for each ghost whose label changed (the session activates
	// the ghost's local neighbors with it).
	sweepFn       func() ([]hubProposal, int)
	hubActive     []bool
	movedHubs     []int
	onGhostChange func(v int)

	// qKernel/qChunks: the globalModularity arc-scan kernel over the
	// concatenated owned+hub index space, likewise built once per stage.
	qKernel func(chunk, worker int)
	qChunks int

	// ansKernel chunks fetchCommunityInfo's owner-side answer loop by
	// source rank; recvFrames carries the received request frames into it
	// between the collectives.
	ansKernel  func(r, worker int)
	recvFrames [][]byte

	// needMark is the dense dedup scratch of noteReferenced: needMark[c]
	// marks community c as already listed this round; callers clear it in
	// O(touched). reqs[r] accumulates neededCommunities' ids owned by
	// rank r.
	needMark []bool
	reqs     [][]int

	// chunkQ/chunkWork hold per-chunk partial results of parFor kernels,
	// combined on the main goroutine in chunk order (bit-identical float
	// reductions at every worker count). chunkWork is sized max(p,
	// maxChunks) because the answer kernel chunks by source rank.
	chunkQ    [maxChunks]float64
	chunkArcs [maxChunks]int64
	chunkWork []int64

	// Mid-solve rebalancing state (migrate.go). pol is nil when rebalancing
	// is off — the entire feature then costs one nil check per iteration.
	// owner is the replicated vertex-ownership directory, allocated on the
	// first migration (nil = static v mod p ownership); community ownership
	// (commOwner) stays c mod p regardless — only vertices migrate, the
	// aggregate tables do not. workVec is the replicated per-rank work
	// vector filled by the fused reduction, the policy's planning input.
	pol     rebalance.Policy
	owner   []int32
	workVec []int64
	reb     rebState

	bd trace.Breakdown
	tm *trace.Timer

	// work accumulates deterministic compute-work units (arcs scanned,
	// values encoded/decoded/applied); it feeds the simulated parallel
	// time. Wall-clock measurement is useless here: ranks share the host's
	// cores and preempt each other mid-segment, so timing is dominated by
	// scheduling noise. Work units are exact and reproducible; WorkUnitNS
	// converts them to nominal time. workPhase splits the same count by
	// algorithm phase (Figure 8(b)).
	work      int64
	workPhase [trace.NumPhases]int64
}

// rebState tracks the rebalance trigger across iterations. Every field is
// derived from replicated data (the allreduced work vector and the shared
// iteration counter), so all ranks hold identical copies without any
// agreement collective.
type rebState struct {
	// over counts consecutive over-threshold iterations (hysteresis).
	over int
	// lastIter is the iteration of the last migration event; initialized
	// far in the past so the cooldown never blocks the first event.
	lastIter int
	// events counts migration events fired this stage.
	events int
	// migrated counts vertices migrated world-wide this stage.
	migrated int64
}

// WorkUnitNS is the nominal cost of one work unit (one arc scanned, one
// value encoded/decoded/applied), calibrated against the sequential
// baseline's per-arc sweep cost on this class of hardware. Only ratios of
// simulated times are meaningful; the constant fixes their scale.
const WorkUnitNS = 10

// addWork records n compute-work units in phase ph.
func (s *stage) addWork(ph trace.Phase, n int64) {
	s.work += n
	s.workPhase[ph] += n
}

func newStage(c comm.Comm, sg *partition.Subgraph, opt Options) *stage {
	n := sg.GlobalVertices
	s := &stage{
		c: c, sg: sg, opt: opt,
		m2:        sg.TotalWeight2,
		gamma:     opt.Resolution,
		p:         c.Size(),
		rnk:       c.Rank(),
		n:         n,
		comm:      make([]int32, n),
		tot:       make([]float64, n),
		size:      make([]int32, n),
		cached:    make([]bool, n),
		ownTot:    make([]float64, n),
		ownSize:   make([]int32, n),
		deltaW:    make([]float64, n),
		deltaN:    make([]int32, n),
		deltaMark: make([]bool, n),
		needMark:  make([]bool, n),
		dirtyMark: make([]bool, n),
		hubBuf:    wire.NewBuffer(0),
	}
	nw := opt.Workers
	if nw <= 0 {
		nw = defaultWorkers(s.p)
	}
	s.pool = newWorkerPool(nw)
	s.accs = make([]*gainAccumulator, nw)
	for w := range s.accs {
		s.accs[w] = newGainAccumulator(n)
	}
	s.sendBufs = make([]*wire.Buffer, s.p)
	for r := range s.sendBufs {
		s.sendBufs[r] = wire.NewBuffer(0)
	}
	s.frames = make([][]byte, s.p)
	s.rqBufs = make([]*wire.Buffer, s.p)
	for r := range s.rqBufs {
		s.rqBufs[r] = wire.NewBuffer(0)
	}
	s.rqFrames = make([][]byte, s.p)
	s.rqReqs = make([][]int, s.p)
	s.rqPos = make([][]int, s.p)
	s.recvIn = make([][]byte, s.p)
	s.deltaSrc = make([][]deltaRec, s.p)
	s.reqs = make([][]int, s.p)
	s.subs = make([][]int, s.p)
	s.unsubs = make([][]int, s.p)
	s.fetchErr = make([]error, s.p)
	s.subBits = make([][]uint64, s.p)
	for r := range s.subBits {
		s.subBits[r] = make([]uint64, (s.ownedRows()+63)/64)
	}
	nh := len(sg.Hubs)
	s.props = make([]hubProposal, nh)
	s.hubChunks = numChunks(nh)
	s.hubKernel = func(chunk, worker int) {
		lo, hi := chunkSpan(nh, s.hubChunks, chunk)
		w := int64(0)
		acc := s.accs[worker]
		for i := lo; i < hi; i++ {
			if s.hubActive != nil && !s.hubActive[i] {
				// Incremental sessions restrict proposals to active hubs; a
				// negInf proposal never wins the reduction, so inactive hubs
				// stay put without perturbing the collective schedule.
				w++
				s.props[i] = hubProposal{improvement: negInf, target: int(s.comm[s.sg.Hubs[i]])}
				continue
			}
			w += int64(len(s.sg.AdjHub[i])) + 1
			s.props[i] = s.hubProposal(s.sg.Hubs[i], s.sg.HubWDeg[i], s.sg.AdjHub[i], acc)
		}
		s.chunkArcs[chunk] = w
	}
	s.buildQKernel()
	s.ansKernel = func(r, _ int) {
		b := s.sendBufs[r]
		s.chunkWork[r], s.fetchErr[r] = s.answerSubscriptions(r, s.recvFrames[r], b)
		s.frames[r] = b.Bytes()
	}
	cw := s.p
	if cw < maxChunks {
		cw = maxChunks
	}
	s.chunkWork = make([]int64, cw)
	if opt.rebalanceOn() {
		// Policy validity was checked in withDefaults.
		s.pol, _ = rebalance.ByName(opt.RebalancePolicy)
		s.workVec = make([]int64, s.p)
		s.reb.lastIter = -1 << 30
	}
	s.tm = trace.NewTimer(&s.bd)
	for i := range s.comm {
		s.comm[i] = -1
	}
	// Every vertex starts in its own singleton community.
	for i, u := range sg.Owned {
		s.comm[u] = int32(u)
		s.ownTot[u] = sg.OwnedWDeg[i]
		s.ownSize[u] = 1
	}
	for i, h := range sg.Hubs {
		s.comm[h] = int32(h)
		if h%s.p == s.rnk {
			s.ownTot[h] = sg.HubWDeg[i]
			s.ownSize[h] = 1
		}
	}
	for _, g := range sg.Ghosts {
		s.comm[g] = int32(g)
	}
	return s
}

// buildQKernel (re)builds the globalModularity arc-scan kernel over the
// concatenated owned+hub index space. The chunk count is a pure function
// of the current owned-vertex count, and the closure snapshots the owned
// tables it scans, so it is rebuilt whenever a migration changes them
// (newStage calls it once for the static case).
func (s *stage) buildQKernel() {
	sg := s.sg
	nOwned := len(sg.Owned)
	nv := nOwned + len(sg.Hubs)
	s.qChunks = numChunks(nv)
	s.qKernel = func(chunk, _ int) {
		lo, hi := chunkSpan(nv, s.qChunks, chunk)
		var in float64
		arcs := int64(0)
		for i := lo; i < hi; i++ {
			var cv int32
			var adj []partition.Arc
			if i < nOwned {
				cv = s.comm[sg.Owned[i]]
				adj = sg.AdjOwned[i]
			} else {
				cv = s.comm[sg.Hubs[i-nOwned]]
				adj = sg.AdjHub[i-nOwned]
			}
			for _, a := range adj {
				if s.comm[a.To] == cv {
					in += a.W
				}
			}
			arcs += int64(len(adj))
		}
		s.chunkQ[chunk] = in
		s.chunkArcs[chunk] = arcs
	}
}

// close releases the stage's worker goroutines. The stage's state stays
// readable (runRank still resolves labels through it); only parallel
// kernels become unavailable.
func (s *stage) close() {
	s.pool.close()
	s.pool = nil
}

// commOwner returns the rank that owns community (or vertex) id c.
func (s *stage) commOwner(c int) int { return c % s.p }

// ownedRows is the number of community ids this rank owns; owned id c is
// row c/p of the rank's per-community tables.
func (s *stage) ownedRows() int {
	if s.n <= s.rnk {
		return 0
	}
	return (s.n-s.rnk-1)/s.p + 1
}

// lookupTot returns the cached Σtot of community c; the fetch step
// guarantees every candidate community is cached, so a miss is a bug.
func (s *stage) lookupTot(c int) float64 {
	if !s.cached[c] {
		panic(fmt.Sprintf("core: rank %d missing Σtot for community %d", s.rnk, c))
	}
	return s.tot[c]
}

// cachedSize returns the cached member count of community c (0 when the
// community is not cached; used only by heuristic guards).
func (s *stage) cachedSize(c int) int32 {
	if !s.cached[c] {
		return 0
	}
	return s.size[c]
}

// noteReferenced lists the distinct communities referenced by locally
// known vertices (owned, hubs, ghosts, in that order) in refList and marks
// each in needMark; the caller clears the marks. The traversal order is a
// pure function of the labels, so the list needs no sort to be
// reproducible.
func (s *stage) noteReferenced() {
	ref := s.refList[:0]
	for _, vs := range [...][]int{s.sg.Owned, s.sg.Hubs, s.sg.Ghosts} {
		for _, v := range vs {
			c := s.comm[v]
			if !s.needMark[c] {
				s.needMark[c] = true
				ref = append(ref, int(c))
			}
		}
	}
	s.refList = ref
}

// neededCommunities returns the deduplicated set of community IDs
// referenced by any locally known vertex, grouped by owning rank in
// traversal order. The returned per-rank slices are stage-owned scratch,
// valid until the next call.
func (s *stage) neededCommunities() [][]int {
	for r := range s.reqs {
		s.reqs[r] = s.reqs[r][:0]
	}
	s.noteReferenced()
	for _, c := range s.refList {
		s.needMark[c] = false
		o := s.commOwner(c)
		s.reqs[o] = append(s.reqs[o], c)
	}
	return s.reqs
}

// addDelta records that community c gained dw weighted degree and dn
// members (negative for departures).
func (s *stage) addDelta(c int, dw float64, dn int32) {
	if !s.deltaMark[c] {
		s.deltaMark[c] = true
		s.deltaTouched = append(s.deltaTouched, c)
	}
	s.deltaW[c] += dw
	s.deltaN[c] += dn
}

// applyLocalMove updates the local caches and delta ledger for a vertex of
// weighted degree k moving from community from to community to.
func (s *stage) applyLocalMove(from, to int, k float64) {
	s.tot[from] -= k
	s.size[from]--
	if s.cached[to] {
		s.tot[to] += k
		s.size[to]++
	}
	s.addDelta(from, -k, -1)
	s.addDelta(to, k, 1)
}

// workBreakdown returns the per-phase simulated compute time of the stage
// (work units × WorkUnitNS).
func (s *stage) workBreakdown() trace.Breakdown {
	var b trace.Breakdown
	for i := range s.workPhase {
		b.Durations[i] = time.Duration(s.workPhase[i] * WorkUnitNS)
	}
	b.Iters = s.bd.Iters
	return b
}

// stageResult summarizes a converged clustering stage.
type stageResult struct {
	Q      float64
	Iters  int
	QTrace []float64
	// SimNS is the simulated parallel compute time of the stage in
	// nanoseconds: Σ over iterations of max-across-ranks work × WorkUnitNS.
	SimNS int64
	// CommSimNS is the simulated communication time: Σ over iterations of
	// max-across-ranks α-β cost of the rank's sent traffic.
	CommSimNS int64
}
