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

// fetchCommunityInfo brings the Σtot/size cache up to date for R_t, the
// set of communities referenced by locally known vertices, through
// subscriptions held at the communities' owners. It runs two all-to-all
// legs:
//
//   - request: each rank sends each owner the ids it newly references
//     (R_t \ R_{t−1}) and the ids it dropped (R_{t−1} \ R_t);
//   - answer: each owner answers the new subscriptions positionally and
//     pushes (id, Σtot, size) for every community the rank still
//     subscribes to that a delta record named since the last fetch.
//
// Every local write to tot/size between two fetches comes with a delta
// record to the community's owner (applyLocalMove emits it for a swept
// vertex, the hub's owner for a hub move in delegateExchange), and an
// owner's table changes only by those records. So an entry the owner does
// not push already equals the owner's value: after the answer leg the
// cache holds exactly R_t with the owners' values, as a full refetch of
// R_t would. A fresh stage subscribes to nothing, so its first fetch
// requests all of R_t.
//
// The owner-side answer loop runs on the worker pool, one chunk per source
// rank (each touches only that rank's bitset and buffer); the collectives
// stay on the stage's main goroutine.
func (s *stage) fetchCommunityInfo() error {
	for r := 0; r < s.p; r++ {
		s.subs[r] = s.subs[r][:0]
		s.unsubs[r] = s.unsubs[r][:0]
	}
	s.noteReferenced()
	for _, c := range s.refList {
		if !s.cached[c] {
			o := s.commOwner(c)
			s.subs[o] = append(s.subs[o], c)
		}
	}
	for _, c := range s.cachedList {
		if !s.needMark[c] {
			o := s.commOwner(c)
			s.unsubs[o] = append(s.unsubs[o], c)
			s.cached[c] = false
		}
	}
	for _, c := range s.refList {
		s.needMark[c] = false
	}
	s.cachedList, s.refList = s.refList, s.cachedList
	out := s.sendScratch()
	nIDs := int64(0)
	for r := 0; r < s.p; r++ {
		b := s.sendBufs[r]
		b.PutInts(s.subs[r])
		b.PutInts(s.unsubs[r])
		out[r] = b.Bytes()
		nIDs += int64(len(s.subs[r]) + len(s.unsubs[r]))
	}
	s.addWork(trace.Other, nIDs)
	in, err := comm.AlltoallvInto(s.c, out, s.recvIn)
	if err != nil {
		return err
	}
	// The received frames are owned by this rank, so the encode buffers
	// can be reused for the answers.
	replies := s.sendScratch()
	s.recvFrames = in
	s.pool.parFor(s.p, s.ansKernel)
	s.recvFrames = nil
	for r := 0; r < s.p; r++ {
		if err := s.fetchErr[r]; err != nil {
			return err
		}
		s.addWork(trace.Other, s.chunkWork[r])
	}
	for _, c := range s.dirty {
		s.dirtyMark[c] = false
	}
	s.dirty = s.dirty[:0]
	// Install the answers as each frame arrives: every community has one
	// owner, so the per-source installs are disjoint and arrival-order
	// application is deterministic.
	installed := int64(0)
	err = comm.AlltoallvFunc(s.c, replies, func(src int, payload []byte) error {
		n, err := s.applyFetchAnswer(src, payload)
		installed += n
		return err
	})
	if err != nil {
		return err
	}
	s.addWork(trace.Other, installed)
	return nil
}

// answerSubscriptions is the owner side of fetchCommunityInfo for the
// request frame of rank src: a length-prefixed list of new subscriptions
// and a length-prefixed list of dropped ones, each id a varint. It appends
// to b the (Σtot, size) of each new subscription in request order, then
// (id, Σtot, size) of every dirty community src still subscribes to, and
// updates src's subscription bits. It returns the work done: ids decoded
// plus dirty entries scanned.
//
// The ids come straight off a peer's frame. An id outside [0, n) or not
// owned here, a new subscription src already holds (or lists twice), a
// drop of one it does not hold, a truncated frame or trailing bytes make
// the frame malformed; the error ends the solve.
func (s *stage) answerSubscriptions(src int, frame []byte, b *wire.Buffer) (int64, error) {
	bits := s.subBits[src]
	var rd wire.Reader
	rd.Reset(frame)
	bad := func(what string, c int64) (int64, error) {
		return 0, fmt.Errorf("core: rank %d: fetch request from rank %d: %s %d: %w", s.rnk, src, what, c, comm.ErrMalformed)
	}
	nSub := rd.Uvarint()
	for j := uint64(0); j < nSub && rd.Err() == nil; j++ {
		c := rd.Varint()
		if rd.Err() != nil {
			break
		}
		if !s.ownsCommunity(c) || bitSet(bits, int(c)/s.p) {
			return bad("subscription to", c)
		}
		b.PutF64(s.ownTot[c])
		b.PutVarint(int64(s.ownSize[c]))
	}
	nUnsub := rd.Uvarint()
	for j := uint64(0); j < nUnsub && rd.Err() == nil; j++ {
		c := rd.Varint()
		if rd.Err() != nil {
			break
		}
		row := int(c) / s.p
		if !s.ownsCommunity(c) || !bitSet(bits, row) {
			return bad("drop of", c)
		}
		bits[row/64] &^= 1 << (uint(row) % 64)
	}
	if err := rd.Err(); err != nil {
		return 0, fmt.Errorf("core: rank %d: fetch request from rank %d: %v: %w", s.rnk, src, err, comm.ErrMalformed)
	}
	if rd.Remaining() != 0 {
		return bad("trailing bytes:", int64(rd.Remaining()))
	}
	for _, c := range s.dirty {
		if bitSet(bits, c/s.p) {
			b.PutVarint(int64(c))
			b.PutF64(s.ownTot[c])
			b.PutVarint(int64(s.ownSize[c]))
		}
	}
	// The new subscriptions take effect after the push loop: their values
	// already went out positionally.
	rd.Reset(frame)
	rd.Uvarint()
	for j := uint64(0); j < nSub; j++ {
		row := int(rd.Varint()) / s.p
		if bitSet(bits, row) {
			return bad("repeated subscription to", int64(row*s.p+s.rnk))
		}
		bits[row/64] |= 1 << (uint(row) % 64)
	}
	return int64(nSub+nUnsub) + int64(len(s.dirty)), nil
}

// ownsCommunity reports whether a community id decoded from a peer frame
// is in [0, n) and owned by this rank.
func (s *stage) ownsCommunity(c int64) bool {
	return c >= 0 && c < int64(s.n) && s.commOwner(int(c)) == s.rnk
}

// bitSet reports whether bit i of the bitset bits is set.
func bitSet(bits []uint64, i int) bool { return bits[i/64]&(1<<(uint(i)%64)) != 0 }

// applyFetchAnswer installs the answer frame of owner src into the cache:
// one (Σtot, size) per id of s.subs[src], in order, then (id, Σtot, size)
// pushes until the end of the frame. It returns the number of entries
// installed. A truncated frame, or a push for an id not owned by src or
// not subscribed, is malformed; the entries before it stay installed and
// the error ends the solve.
func (s *stage) applyFetchAnswer(src int, payload []byte) (int64, error) {
	var rd wire.Reader
	rd.Reset(payload)
	for _, c := range s.subs[src] {
		tot, size := rd.F64(), rd.Varint()
		if err := rd.Err(); err != nil {
			return 0, fmt.Errorf("core: rank %d: fetch answer from rank %d: %v: %w", s.rnk, src, err, comm.ErrMalformed)
		}
		s.cached[c] = true
		s.tot[c] = tot
		s.size[c] = int32(size)
	}
	n := int64(len(s.subs[src]))
	for rd.Remaining() > 0 {
		c, tot, size := rd.Varint(), rd.F64(), rd.Varint()
		if err := rd.Err(); err != nil {
			return n, fmt.Errorf("core: rank %d: fetch answer from rank %d: %v: %w", s.rnk, src, err, comm.ErrMalformed)
		}
		if c < 0 || c >= int64(s.n) || s.commOwner(int(c)) != src || !s.cached[c] {
			return n, fmt.Errorf("core: rank %d: fetch answer from rank %d: push for community %d: %w", s.rnk, src, c, comm.ErrMalformed)
		}
		s.tot[c] = tot
		s.size[c] = int32(size)
		n++
	}
	return n, nil
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
	return s.applyHubWinners(win)
}

// applyHubWinners decodes the reduced hub-proposal frame, one (improvement,
// target) per hub in hub order, and applies the winning moves. The frame
// comes off the wire: a target outside [0, n), fewer records than hubs,
// trailing bytes, or the empty poison frame of a mismatched combine is
// malformed. Moves before the bad record stay applied; the error ends the
// solve.
func (s *stage) applyHubWinners(win []byte) (int, error) {
	var rd wire.Reader
	rd.Reset(win)
	moved := 0
	s.movedHubs = s.movedHubs[:0]
	for i, h := range s.sg.Hubs {
		imp := rd.F64()
		t := rd.Varint()
		if err := rd.Err(); err != nil {
			return moved, fmt.Errorf("core: rank %d: hub proposals (%d hubs, %d bytes): %v: %w", s.rnk, len(s.sg.Hubs), len(win), err, comm.ErrMalformed)
		}
		if t < 0 || t >= int64(s.n) {
			return moved, fmt.Errorf("core: rank %d: hub proposals: hub %d target %d: %w", s.rnk, h, t, comm.ErrMalformed)
		}
		target := int(t)
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
	if rd.Remaining() != 0 {
		return moved, fmt.Errorf("core: rank %d: hub proposals: %d trailing bytes: %w", s.rnk, rd.Remaining(), comm.ErrMalformed)
	}
	return moved, nil
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
// requires. Operands that do not decode to the same number of records (a
// truncated or foreign peer frame) yield the empty poison frame, which
// mismatches every non-empty operand of a later combine, so the reduction
// carries it to every rank and each rank's applyHubWinners reports it.
func combineHubProposals(a, b []byte) []byte {
	ra, rb := wire.NewReader(a), wire.NewReader(b)
	out := wire.NewBuffer(len(a))
	for ra.Remaining() > 0 && rb.Remaining() > 0 {
		ia, ta := ra.F64(), ra.Varint()
		ib, tb := rb.F64(), rb.Varint()
		if ra.Err() != nil || rb.Err() != nil {
			return nil
		}
		if ib > ia || (ib == ia && tb < ta) {
			ia, ta = ib, tb
		}
		out.PutF64(ia)
		out.PutVarint(ta)
	}
	if ra.Remaining() != 0 || rb.Remaining() != 0 {
		return nil
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
	err := comm.AlltoallvFunc(s.c, bufs, func(src int, payload []byte) error {
		n, err := s.applyGhostFrame(src, payload)
		recvd += n
		return err
	})
	if err != nil {
		return err
	}
	s.addWork(trace.SwapGhost, recvd)
	return nil
}

// applyGhostFrame decodes one peer's ghost-swap frame, a run of (vertex,
// label) varint pairs, into s.comm and returns the number of pairs
// applied. Both values come straight off a peer's frame: a vertex outside
// [0, n) or owned by this rank, a label outside [0, n), or a truncated
// pair is a malformed frame, not an index. The pairs before the bad one
// stay applied; the error ends the solve.
func (s *stage) applyGhostFrame(src int, payload []byte) (int64, error) {
	var rd wire.Reader
	rd.Reset(payload)
	n := int64(s.n)
	applied := int64(0)
	for rd.Remaining() > 0 {
		v, c := rd.Varint(), rd.Varint()
		if err := rd.Err(); err != nil {
			return applied, fmt.Errorf("core: rank %d: ghost frame from rank %d: %v: %w", s.rnk, src, err, comm.ErrMalformed)
		}
		if v < 0 || v >= n || s.ownerOf(int(v)) == s.rnk || c < 0 || c >= n {
			return applied, fmt.Errorf("core: rank %d: ghost frame from rank %d: vertex %d label %d: %w", s.rnk, src, v, c, comm.ErrMalformed)
		}
		if s.onGhostChange != nil && s.comm[v] != int32(c) {
			s.onGhostChange(int(v))
		}
		s.comm[v] = int32(c)
		applied++
	}
	return applied, nil
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
	err := comm.AlltoallvFunc(s.c, bufs, s.decodeDeltaFrame)
	if err != nil {
		return err
	}
	// Every community a record names is dirty until the next fetch pushes
	// it to its subscribers, even when the record's sum is zero: the
	// senders' caches moved by it.
	applied := int64(0)
	for r := 0; r < s.p; r++ {
		for _, d := range s.deltaSrc[r] {
			s.ownTot[d.c] += d.dw
			s.ownSize[d.c] += d.dn
			if !s.dirtyMark[d.c] {
				s.dirtyMark[d.c] = true
				s.dirty = append(s.dirty, int(d.c))
			}
			applied++
		}
	}
	s.addWork(trace.Other, applied)
	return nil
}

// decodeDeltaFrame buffers the (community, Σtot delta, size delta) records
// of rank src's flush frame in s.deltaSrc[src]. The community id comes off
// a peer's frame: one outside [0, n) or not owned by this rank, or a
// truncated record, is malformed. The records before it stay buffered;
// the error ends the solve.
func (s *stage) decodeDeltaFrame(src int, payload []byte) error {
	var rd wire.Reader
	rd.Reset(payload)
	recs := s.deltaSrc[src]
	defer func() { s.deltaSrc[src] = recs }()
	for rd.Remaining() > 0 {
		c, dw, dn := rd.Varint(), rd.F64(), rd.Varint()
		if err := rd.Err(); err != nil {
			return fmt.Errorf("core: rank %d: delta frame from rank %d: %v: %w", s.rnk, src, err, comm.ErrMalformed)
		}
		if !s.ownsCommunity(c) {
			return fmt.Errorf("core: rank %d: delta frame from rank %d: community %d: %w", s.rnk, src, c, comm.ErrMalformed)
		}
		recs = append(recs, deltaRec{c: int32(c), dw: dw, dn: int32(dn)})
	}
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
