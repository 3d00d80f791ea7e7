package comm

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Overlapped collectives. A sequential exchange would serialize p−1
// blocking round-trips, so per-call latency would grow like p·(one-way
// latency). The variants here post every outbound frame before waiting on
// any inbound one — Send never blocks (all transports buffer internally) —
// so the p−1 transfers are in flight concurrently and the call waits for
// the slowest peer instead of the sum of all peers.
//
// Determinism: results are indexed by source rank, so callers observe the
// same (src, payload) mapping as a sequential exchange no matter in which
// order frames arrive. AlltoallvFunc additionally streams
// payloads to a callback in arrival order; that is safe exactly when the
// callback's effect is independent of invocation order (disjoint writes
// per source rank, or order-insensitive combining). docs/PERFORMANCE.md
// catalogs which core exchanges qualify and how the order-sensitive ones
// (floating-point accumulation) buffer per source and apply in rank order.

// Alltoallv performs a personalized all-to-all exchange: out[i] is sent to
// rank i, and the returned slice holds in[i] received from rank i. out must
// have length Size(); out[Rank()] is returned unchanged (copied).
//
// All p−1 sends are posted before the first receive, then peers are
// drained in rank-index order; the result is byte-identical to a
// sequential exchange at max-over-peers latency instead of sum-over-peers.
func Alltoallv(c Comm, out [][]byte) ([][]byte, error) {
	return AlltoallvInto(c, out, nil)
}

// AlltoallvInto is Alltoallv with caller-owned scratch: in (if non-nil)
// must have length Size() and is reused for the result. in[Rank()] keeps
// its backing array for the self copy, so a caller exchanging every
// iteration allocates nothing for the slice header or its own payload;
// the other slots are replaced by transport buffers.
func AlltoallvInto(c Comm, out, in [][]byte) ([][]byte, error) {
	p := c.Size()
	if len(out) != p {
		return nil, fmt.Errorf("comm: Alltoallv needs %d buffers, got %d", p, len(out))
	}
	if in == nil {
		in = make([][]byte, p)
	} else if len(in) != p {
		return nil, fmt.Errorf("comm: AlltoallvInto needs %d scratch buffers, got %d", p, len(in))
	}
	r := c.Rank()
	in[r] = append(in[r][:0], out[r]...)
	if p == 1 {
		return in, nil
	}
	defer collDone(trace.CollAlltoallv, collStart(), framesLen(out))
	// Post every send up front; the transfers overlap from here on.
	for step := 1; step < p; step++ {
		dst := (r + step) % p
		if err := c.Send(dst, tagAlltoallv, out[dst]); err != nil {
			return nil, err
		}
	}
	for step := 1; step < p; step++ {
		src := (r - step + p) % p
		got, err := c.Recv(src, tagAlltoallv)
		if err != nil {
			return nil, err
		}
		in[src] = got
	}
	return in, nil
}

// AlltoallvFunc is the streaming alltoall: it posts all sends, then hands
// each inbound payload to fn as it arrives, so decode work overlaps
// still-in-flight traffic. fn runs on the calling goroutine only, never
// concurrently with itself. The callback order is: own payload first
// (fn(Rank(), out[Rank()]) before any network wait), then peers in arrival
// order — which varies run to run, so fn's effect must not depend on it.
// The payload slice is only valid during the callback (transport-owned).
//
// If fn returns an error, remaining payloads are drained without further
// callbacks and the first error is returned.
func AlltoallvFunc(c Comm, out [][]byte, fn func(src int, payload []byte) error) error {
	p := c.Size()
	if len(out) != p {
		return fmt.Errorf("comm: Alltoallv needs %d buffers, got %d", p, len(out))
	}
	r := c.Rank()
	if p == 1 {
		return fn(r, out[r])
	}
	defer collDone(trace.CollAlltoallv, collStart(), framesLen(out))
	for step := 1; step < p; step++ {
		dst := (r + step) % p
		if err := c.Send(dst, tagAlltoallv, out[dst]); err != nil {
			return err
		}
	}
	// Own payload first: a fixed, deterministic position in the callback
	// sequence, and useful decode work before the first frame lands.
	firstErr := fn(r, out[r])
	type arrival struct {
		src  int
		data []byte
		err  error
	}
	// Buffered to p−1 so receivers never block on the channel: an early
	// callback error cannot leak them, and the drain loop below always
	// consumes all p−1 entries.
	ch := make(chan arrival, p-1)
	for step := 1; step < p; step++ {
		src := (r - step + p) % p
		go func(src int) {
			got, err := c.Recv(src, tagAlltoallv)
			ch <- arrival{src: src, data: got, err: err}
		}(src)
	}
	for i := 1; i < p; i++ {
		a := <-ch
		if a.err != nil {
			if firstErr == nil {
				firstErr = a.err
			}
			continue
		}
		if firstErr != nil {
			continue // drain without decoding after a failure
		}
		if err := fn(a.src, a.data); err != nil {
			firstErr = err
		}
	}
	return firstErr
}

// IterStats is the per-iteration scalar bundle of the clustering loop.
// Reducing it as one collective replaces four back-to-back scalar
// allreduces (4 × log p latency terms) with one. Each field carries its
// own reduction: Moved and Q are summed, Work and CommNS are maximized.
type IterStats struct {
	// Moved is the number of vertices that changed community (world sum).
	Moved int64
	// Work is the simulated work units of the iteration (world max).
	Work int64
	// CommNS is the modeled communication time in ns (world max).
	CommNS int64
	// Q is the modularity contribution (world sum).
	Q float64
}

const iterStatsWireLen = 32 // 3×int64 + 1×float64, fixed-width

// combineIterStats returns the combine of AllreduceIterStats for frames of
// exactly want bytes: the 32-byte header combines sum/max/max/sum and the
// trailing int64 slots elementwise by max. An operand of any other length
// (a short or foreign peer frame) yields an empty poison frame, which
// fails the length check of every later combine, so recursive doubling
// carries it to every rank and each rank's decode reports it.
func combineIterStats(want int) func(a, b []byte) []byte {
	return func(a, b []byte) []byte {
		if len(a) != want || len(b) != want {
			return nil
		}
		ra, rb := wire.NewReader(a), wire.NewReader(b)
		s := wire.NewBuffer(want)
		s.PutI64(ra.I64() + rb.I64())
		s.PutI64(max(ra.I64(), rb.I64()))
		s.PutI64(max(ra.I64(), rb.I64()))
		// Same operand order as AllreduceFloat64Sum's combiner (accumulated
		// + received) over the same reduction tree, so the fused Q is
		// bit-identical to the standalone float sum.
		s.PutF64(ra.F64() + rb.F64())
		for ra.Remaining() > 0 {
			s.PutI64(max(ra.I64(), rb.I64()))
		}
		return s.Bytes()
	}
}

// AllreduceIterStats reduces v across all ranks in a single collective:
// component-wise sum/max/max/sum. The float component follows the exact
// combine tree of AllreduceFloat64Sum, so fused and unfused reductions
// produce bit-identical modularity values.
//
// slots, when non-nil, must have length Size() and rides the same frame
// (32 + 8·Size() bytes instead of 32): each rank contributes its
// non-negative slots[Rank()] in its own slot and zero elsewhere, the
// combine takes the elementwise max, and on return slots[r] holds rank r's
// value on every rank. The other entries' prior contents are ignored, and
// the scalar results are bit-identical to a call without slots.
func AllreduceIterStats(c Comm, v IterStats, slots []int64) (IterStats, error) {
	p, r := c.Size(), c.Rank()
	if slots != nil && len(slots) != p {
		return IterStats{}, fmt.Errorf("comm: AllreduceIterStats needs %d slots, got %d", p, len(slots))
	}
	want := iterStatsWireLen + 8*len(slots)
	buf := wire.NewBuffer(want)
	buf.PutI64(v.Moved)
	buf.PutI64(v.Work)
	buf.PutI64(v.CommNS)
	buf.PutF64(v.Q)
	for i := range slots {
		if i == r {
			buf.PutI64(slots[i])
		} else {
			buf.PutI64(0)
		}
	}
	out, err := AllreduceBytes(c, buf.Bytes(), combineIterStats(want))
	if err != nil {
		return IterStats{}, err
	}
	if len(out) != want {
		return IterStats{}, fmt.Errorf("comm: rank %d: iteration-stats reduction returned %d bytes, want %d: %w", r, len(out), want, ErrMalformed)
	}
	rd := wire.NewReader(out)
	res := IterStats{Moved: rd.I64(), Work: rd.I64(), CommNS: rd.I64(), Q: rd.F64()}
	for i := range slots {
		slots[i] = rd.I64()
	}
	return res, rd.Err()
}
