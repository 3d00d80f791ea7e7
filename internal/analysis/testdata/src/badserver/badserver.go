// Package badserver is a negative fixture for the serving path's per-batch
// drift reduction: AllreduceIterStats with one touched-count slot per rank
// is a collective with an error, so it carries both the symmetry and the
// error obligations.
package badserver

import "repro/internal/comm"

// DropDriftErr drops the drift reduction's error: the rank keeps serving
// with stale drift while its peers may have failed the batch.
func DropDriftErr(c comm.Comm, s comm.IterStats, touched []int64) comm.IterStats {
	out, _ := comm.AllreduceIterStats(c, s, touched) // want commerr
	return out
}

// RootOnlyDriftReduce enters the per-batch reduction on rank 0 only —
// the other ranks are back in their command loops and the world wedges.
func RootOnlyDriftReduce(c comm.Comm, s comm.IterStats, touched []int64) (comm.IterStats, error) {
	if c.Rank() == 0 {
		return comm.AllreduceIterStats(c, s, touched) // want collectivesym
	}
	return s, nil
}

// FireAndForgetUpdate makes the reduction unobservable by construction:
// asymmetric by schedule and its error lost.
func FireAndForgetUpdate(c comm.Comm, s comm.IterStats, touched []int64) {
	go comm.AllreduceIterStats(c, s, touched) // want collectivesym commerr
}

// SymmetricOK is the control case: every rank reaches the reduction and
// its error is propagated.
func SymmetricOK(c comm.Comm, s comm.IterStats, touched []int64) (comm.IterStats, error) {
	return comm.AllreduceIterStats(c, s, touched)
}
