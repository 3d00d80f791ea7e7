package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/comm"
	"repro/internal/trace"
	"repro/internal/wire"
)

// sendScratch resets the stage's pooled encode buffers and frame headers
// and returns the frame slice to hand to Alltoallv. The buffers keep their
// storage across iterations (wire.Buffer.Reset), so steady-state exchanges
// allocate nothing on the send side; the transports copy payloads on Send,
// so reuse after a collective returns is safe.
//
//perf:noalloc
func (s *stage) sendScratch() [][]byte {
	for r := 0; r < s.p; r++ {
		s.sendBufs[r].Reset()
		s.frames[r] = nil
	}
	return s.frames
}

// fetchCommunityInfo refreshes the Σtot/size caches for every community
// referenced locally: requests are routed to community owners via an
// all-to-all exchange and answered from the authoritative tables. The
// request-encode and answer loops are chunked by peer rank and run on the
// worker pool (each chunk touches only its own rank's buffers); the
// collectives themselves stay on the stage's main goroutine.
func (s *stage) fetchCommunityInfo() error {
	reqs := s.neededCommunities()
	out := s.sendScratch()
	s.pool.parFor(s.p, s.encKernel)
	nReq := int64(0)
	for r := 0; r < s.p; r++ {
		nReq += s.chunkWork[r]
	}
	s.addWork(trace.Other, nReq)
	in, err := comm.AlltoallvInto(s.c, out, s.recvIn)
	if err != nil {
		return err
	}
	// Answer each request list in order. The received frames are owned by
	// this rank, so the encode buffers can be reused for the replies.
	replies := s.sendScratch()
	s.recvFrames = in
	s.pool.parFor(s.p, s.ansKernel)
	s.recvFrames = nil
	for r := 0; r < s.p; r++ {
		if s.chunkWork[r] < 0 {
			// Re-decode serially to surface the deterministic wire error.
			rd := wire.NewReader(in[r])
			n := int(rd.Uvarint())
			for j := 0; j < n && rd.Err() == nil; j++ {
				rd.Varint()
			}
			if err := rd.Err(); err != nil {
				return err
			}
			return fmt.Errorf("core: rank %d: request frame from rank %d: %w", s.rnk, r, comm.ErrMalformed)
		}
		s.addWork(trace.Other, s.chunkWork[r])
	}
	// Install fresh values as each answer frame arrives: every community
	// appears in exactly one request bucket, so the per-source installs are
	// disjoint and arrival-order application is deterministic. The callback
	// runs on this goroutine only (installCache appends to the shared
	// touched list).
	s.resetCache()
	var rd wire.Reader
	err = comm.AlltoallvFunc(s.c, replies, func(src int, payload []byte) error {
		rd.Reset(payload)
		for _, c := range reqs[src] {
			s.installCache(c, rd.F64(), int32(rd.Varint()))
		}
		return rd.Err()
	})
	if err != nil {
		return err
	}
	s.addWork(trace.Other, nReq)
	return nil
}

// hubProposal is one rank's best move for one hub, computed from the rank's
// local share of the hub's arcs. Improvement is the modularity-gain
// advantage over keeping the hub in its current community; negative or
// -Inf proposals never win.
type hubProposal struct {
	improvement float64
	target      int
}

// delegateExchange reduces per-rank hub proposals to a global winner per hub
// (max improvement, ties to the smaller target label) and applies the
// winning moves identically on every rank. It returns the number of hubs
// that moved *and are owned by this rank*, so the world-wide sum counts each
// hub once. Only the hub's owner emits aggregate deltas, for the same
// reason.
func (s *stage) delegateExchange(props []hubProposal) (int, error) {
	nh := len(s.sg.Hubs)
	if nh == 0 {
		return 0, nil
	}
	s.hubBuf.Reset()
	for _, pr := range props {
		s.hubBuf.PutF64(pr.improvement)
		s.hubBuf.PutVarint(int64(pr.target))
	}
	// Encode + apply are O(hubs) on every rank; the reduction itself adds
	// O(hubs · log p) combine work, charged here as well.
	s.addWork(trace.BroadcastDelegates, int64(nh)*int64(2+log2ceil(s.p)))
	win, err := comm.AllreduceBytes(s.c, s.hubBuf.Bytes(), combineHubProposals)
	if err != nil {
		return 0, err
	}
	var rd wire.Reader
	rd.Reset(win)
	moved := 0
	s.movedHubs = s.movedHubs[:0]
	for i, h := range s.sg.Hubs {
		imp := rd.F64()
		target := int(rd.Varint())
		cur := int(s.comm[h])
		if !(imp > gainEps) || target == cur {
			continue
		}
		// A hub's community state is inherently cross-rank, so hub moves
		// take the minimum-label constraint under the enhanced and strict
		// heuristics. The decision is identical on every rank because all
		// inputs are replicated.
		if s.opt.Heuristic != HeuristicSimple && target > cur {
			continue
		}
		k := s.sg.HubWDeg[i]
		s.comm[h] = int32(target)
		s.movedHubs = append(s.movedHubs, i)
		if s.cached[cur] {
			s.tot[cur] -= k
			s.size[cur]--
		}
		if s.cached[target] {
			s.tot[target] += k
			s.size[target]++
		}
		if s.commOwner(h) == s.rnk {
			s.addDelta(cur, -k, -1)
			s.addDelta(target, k, 1)
			moved++
		}
	}
	return moved, rd.Err()
}

func log2ceil(v int) int {
	n := 0
	for 1<<n < v {
		n++
	}
	return n
}

// combineHubProposals merges two encoded proposal vectors elementwise,
// keeping the higher improvement and breaking ties toward the smaller
// target label. It is associative and commutative as AllreduceBytes
// requires.
func combineHubProposals(a, b []byte) []byte {
	ra, rb := wire.NewReader(a), wire.NewReader(b)
	out := wire.NewBuffer(len(a))
	for ra.Remaining() > 0 {
		ia, ta := ra.F64(), ra.Varint()
		ib, tb := rb.F64(), rb.Varint()
		if ib > ia || (ib == ia && tb < ta) {
			ia, ta = ib, tb
		}
		out.PutF64(ia)
		out.PutVarint(ta)
	}
	return out.Bytes()
}

// ghostSwap pushes the labels of changed owned vertices to every rank that
// holds them as ghosts, and applies the symmetric updates received.
func (s *stage) ghostSwap() error {
	bufs := s.sendScratch()
	sent := int64(0)
	for _, u := range s.changed {
		subs := s.sg.Subscribers[u]
		if len(subs) == 0 {
			continue
		}
		c := int64(s.comm[u])
		for _, r := range subs {
			s.sendBufs[r].PutVarint(int64(u))
			s.sendBufs[r].PutVarint(c)
			sent++
		}
	}
	for r := 0; r < s.p; r++ {
		bufs[r] = s.sendBufs[r].Bytes()
	}
	s.addWork(trace.SwapGhost, sent)
	// Stream the inbound label updates: every vertex is published only by
	// its owner, so the per-source writes to s.comm are disjoint and
	// arrival-order application is deterministic.
	recvd := int64(0)
	var rd wire.Reader
	err := comm.AlltoallvFunc(s.c, bufs, func(src int, payload []byte) error {
		rd.Reset(payload)
		for rd.Remaining() > 0 {
			v := int(rd.Varint())
			c := int32(rd.Varint())
			if s.onGhostChange != nil && s.comm[v] != c {
				s.onGhostChange(v)
			}
			s.comm[v] = c
			recvd++
		}
		return rd.Err()
	})
	if err != nil {
		return err
	}
	s.addWork(trace.SwapGhost, recvd)
	return nil
}

// flushDeltas routes the pending Σtot/size deltas to community owners and
// applies the ones addressed to this rank.
func (s *stage) flushDeltas() error {
	bufs := s.sendScratch()
	// Sorted order keeps the byte streams reproducible run to run.
	sort.Ints(s.deltaTouched)
	s.addWork(trace.Other, int64(len(s.deltaTouched)))
	for _, c := range s.deltaTouched {
		o := s.commOwner(c)
		s.sendBufs[o].PutVarint(int64(c))
		s.sendBufs[o].PutF64(s.deltaW[c])
		s.sendBufs[o].PutVarint(int64(s.deltaN[c]))
		s.deltaW[c] = 0
		s.deltaN[c] = 0
		s.deltaMark[c] = false
	}
	s.deltaTouched = s.deltaTouched[:0]
	for r := 0; r < s.p; r++ {
		bufs[r] = s.sendBufs[r].Bytes()
	}
	// Decode overlaps in-flight traffic (arrival order), but Σtot is a
	// floating-point accumulation whose result depends on addend order, so
	// the decoded records are buffered per source rank and applied in rank
	// order below — bit-identical to applying the frames in rank order.
	for r := 0; r < s.p; r++ {
		s.deltaSrc[r] = s.deltaSrc[r][:0]
	}
	var rd wire.Reader
	err := comm.AlltoallvFunc(s.c, bufs, func(src int, payload []byte) error {
		rd.Reset(payload)
		recs := s.deltaSrc[src]
		for rd.Remaining() > 0 {
			c := int32(rd.Varint())
			dw := rd.F64()
			dn := int32(rd.Varint())
			recs = append(recs, deltaRec{c: c, dw: dw, dn: dn})
		}
		s.deltaSrc[src] = recs
		return rd.Err()
	})
	if err != nil {
		return err
	}
	applied := int64(0)
	for r := 0; r < s.p; r++ {
		for _, d := range s.deltaSrc[r] {
			s.ownTot[d.c] += d.dw
			s.ownSize[d.c] += d.dn
			applied++
		}
	}
	s.addWork(trace.Other, applied)
	return nil
}

// deltaRec is one decoded Σtot/size delta, buffered per source rank so the
// floating-point application order stays rank order (see flushDeltas).
type deltaRec struct {
	c  int32
	dw float64
	dn int32
}

// localModularity computes this rank's modularity contribution from the
// current, fully synchronized community state: the weights of matching
// local arcs plus the −(Σtot/2m)² terms of the non-empty communities this
// rank owns. Summed across ranks it is the exact global modularity.
//
// The arc scan is chunked over the concatenated owned+hub vertex range and
// runs on the worker pool; the per-chunk partial sums combine in chunk
// order on the main goroutine, so the float reduction associates
// identically at every worker count.
func (s *stage) localModularity() float64 {
	nc := s.qChunks
	s.pool.parFor(nc, s.qKernel)
	var in float64
	arcs := int64(0)
	for c := 0; c < nc; c++ {
		in += s.chunkQ[c]
		arcs += s.chunkArcs[c]
	}
	var totTerm float64
	owned := int64(0)
	for c := s.rnk; c < s.n; c += s.p {
		owned++
		if s.ownSize[c] <= 0 {
			continue
		}
		t := s.ownTot[c] / s.m2
		totTerm += s.gamma * t * t
	}
	s.addWork(trace.Other, arcs+owned)
	return in/s.m2 - totTerm
}

// globalModularity reduces localModularity across ranks. The clustering
// loop instead folds the local value into the fused per-iteration
// reduction (comm.AllreduceIterStats), whose float combine follows the
// same tree — bit-identical Q either way; this standalone form serves the
// invariant checks and tests.
func (s *stage) globalModularity() (float64, error) {
	return comm.AllreduceFloat64Sum(s.c, s.localModularity())
}

// negInf is the improvement of an absent hub proposal.
var negInf = math.Inf(-1)
