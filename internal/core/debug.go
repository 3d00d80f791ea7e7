package core

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/trace"
)

// debugInvariants enables per-iteration conservation checks in cluster();
// it is switched on by tests only.
var debugInvariants = false

// debugVerbose prints per-iteration community statistics.
var debugVerbose = false

// testIterHook, when non-nil, runs on every rank after each clustering
// iteration (post aggregate flush and modularity reduction) with the live
// stage, the iteration number, and the just-reduced global modularity.
// Tests install it to audit internal state against independently computed
// ground truth; an error aborts the stage. It must be set before the world
// starts and not mutated while ranks run.
var testIterHook func(s *stage, iter int, q float64) error

// testFetchHook, when non-nil, runs on every rank right after each
// clustering iteration's fetchCommunityInfo, before the sweep reads the
// cache. Same rules as testIterHook.
var testFetchHook func(s *stage) error

// checkInvariants verifies global conservation laws after an iteration:
// the authoritative Σtot values must sum to 2m and the community sizes to
// the global vertex count.
func (s *stage) checkInvariants(iter int) error {
	var localTot float64
	var localN, localMax int64
	for c := s.rnk; c < s.n; c += s.p {
		n := int64(s.ownSize[c])
		if n > localMax {
			localMax = n
		}
		localN += n
		localTot += s.ownTot[c]
		if n < 0 {
			return fmt.Errorf("core: iter %d rank %d community %d has negative size %d", iter, s.rnk, c, n)
		}
		if n == 0 && math.Abs(s.ownTot[c]) > 1e-6 {
			return fmt.Errorf("core: iter %d rank %d empty community %d has Σtot %g", iter, s.rnk, c, s.ownTot[c])
		}
	}
	gTot, err := comm.AllreduceFloat64Sum(s.c, localTot)
	if err != nil {
		return err
	}
	gN, err := comm.AllreduceInt64Sum(s.c, localN)
	if err != nil {
		return err
	}
	owned, err := comm.AllreduceInt64Sum(s.c, int64(len(s.sg.Owned)))
	if err != nil {
		return err
	}
	wantN := owned + int64(len(s.sg.Hubs))
	if gN != wantN {
		return fmt.Errorf("core: iter %d: community sizes sum to %d, want %d", iter, gN, wantN)
	}
	if math.Abs(gTot-s.m2) > 1e-6*math.Max(1, s.m2) {
		return fmt.Errorf("core: iter %d: Σtot sums to %g, want 2m = %g", iter, gTot, s.m2)
	}
	gMax, err := comm.AllreduceInt64Max(s.c, localMax)
	if err != nil {
		return err
	}
	if debugVerbose && s.rnk == 0 {
		trace.Logf("dbg: verts=%d iter %d maxsz=%d", gN, iter, gMax)
	}
	return nil
}
