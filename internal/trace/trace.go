// Package trace provides the phase timers used to reproduce the paper's
// execution-time breakdown (Figure 8): each clustering iteration is split
// into Find Best Community, Broadcast Delegates, Swap Ghost Vertex State,
// and Other.
package trace

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The package doubles as the sanctioned diagnostics sink for library code:
// packages under internal/ must not write to process-global streams (the
// noprint analyzer enforces this — experiment tables own stdout, and p
// ranks printing concurrently interleave into garbage), so runtime
// diagnostics go through Logf, whose writer is injectable and serialized.

// Now returns the current wall-clock time. It exists so solver packages
// can take timestamps without calling time.Now directly: the nondet
// analyzer forbids raw wall-clock reads in solver code, and funneling them
// through this package keeps every sanctioned use auditable in one place.
// The contract is that wall clock feeds only reported timings — never an
// algorithmic decision.
func Now() time.Time { return time.Now() }

// Since returns the wall-clock time elapsed since t (see Now).
func Since(t time.Time) time.Duration { return time.Since(t) }

var (
	logMu  sync.Mutex
	logOut io.Writer = os.Stderr
)

// SetLogOutput redirects Logf; w == nil restores the default (stderr).
// Tests use this to capture or silence library diagnostics.
func SetLogOutput(w io.Writer) {
	logMu.Lock()
	defer logMu.Unlock()
	if w == nil {
		w = os.Stderr
	}
	logOut = w
}

// Logf writes one diagnostic line (a newline is appended if missing).
// Safe for concurrent use from multiple ranks.
func Logf(format string, args ...any) {
	logMu.Lock()
	defer logMu.Unlock()
	fmt.Fprintf(logOut, format, args...)
	if !strings.HasSuffix(format, "\n") {
		io.WriteString(logOut, "\n")
	}
}

// Event stream. Unlike Logf (diagnostics that default to stderr), events
// are high-volume runtime occurrences — fault injections, retries,
// reconnects — that are silenced by default and enabled by tests or
// operators chasing a robustness problem. Each line is prefixed with its
// kind so a capture can be grepped per event class.

var (
	eventMu  sync.Mutex
	eventOut io.Writer // nil = discard
)

// SetEventOutput directs Eventf to w; nil restores the default (discard).
func SetEventOutput(w io.Writer) {
	eventMu.Lock()
	defer eventMu.Unlock()
	eventOut = w
}

// Eventf records one event of the given kind (e.g. "retry", "chaos",
// "peerdown"). It is a no-op unless SetEventOutput installed a sink. Safe
// for concurrent use from multiple ranks.
func Eventf(kind, format string, args ...any) {
	eventMu.Lock()
	defer eventMu.Unlock()
	if eventOut == nil {
		return
	}
	fmt.Fprintf(eventOut, "[%s] ", kind)
	fmt.Fprintf(eventOut, format, args...)
	if !strings.HasSuffix(format, "\n") {
		io.WriteString(eventOut, "\n")
	}
}

// Per-collective accounting. The comm layer reports every collective call
// (kind, wall time, payload bytes) here when enabled; benchmarks use the
// snapshot to attribute per-iteration latency and volume to individual
// collective kinds (the Fig. 8 communication breakdown). Disabled by
// default: the guard is a single atomic load, so production runs pay no
// time.Now() calls.

// Collective identifies one collective-operation kind.
type Collective int

const (
	// CollAlltoallv covers all Alltoallv variants (overlapped and
	// streaming).
	CollAlltoallv Collective = iota
	// CollAllgather is the ring allgather.
	CollAllgather
	// CollAllreduce covers AllreduceBytes and every wrapper built on it,
	// including the fused IterStats reduction.
	CollAllreduce
	// CollGather is the rooted gather.
	CollGather
	// CollBcast is the binomial-tree broadcast.
	CollBcast
	// CollBarrier is the dissemination barrier.
	CollBarrier
	// CollMigrate is the vertex-migration exchange of the mid-solve load
	// rebalancer (comm.MigrationExchange); kept separate from CollAlltoallv
	// so migration traffic is visible in its own row of the census.
	CollMigrate

	numCollectives
)

func (k Collective) String() string {
	switch k {
	case CollAlltoallv:
		return "Alltoallv"
	case CollAllgather:
		return "Allgather"
	case CollAllreduce:
		return "Allreduce"
	case CollGather:
		return "Gather"
	case CollBcast:
		return "Bcast"
	case CollBarrier:
		return "Barrier"
	case CollMigrate:
		return "Migrate"
	default:
		return fmt.Sprintf("Collective(%d)", int(k))
	}
}

var collStatsOn atomic.Bool

type collCounter struct {
	calls atomic.Int64
	ns    atomic.Int64
	bytes atomic.Int64
}

var collStats [numCollectives]collCounter

// EnableCollectiveStats switches per-collective accounting on or off.
func EnableCollectiveStats(on bool) { collStatsOn.Store(on) }

// CollectiveStatsEnabled reports whether accounting is on. Callers check
// this before taking timestamps so the disabled path costs one atomic load.
func CollectiveStatsEnabled() bool { return collStatsOn.Load() }

// RecordCollective accumulates one collective call. Safe for concurrent use
// from multiple ranks; a no-op while accounting is disabled.
func RecordCollective(k Collective, ns, bytes int64) {
	if !collStatsOn.Load() || k < 0 || k >= numCollectives {
		return
	}
	collStats[k].calls.Add(1)
	collStats[k].ns.Add(ns)
	collStats[k].bytes.Add(bytes)
}

// CollectiveStat is a point-in-time copy of one collective kind's counters.
type CollectiveStat struct {
	Calls, NS, Bytes int64
}

// CollectiveTotals sums the counters over all collective kinds.
func CollectiveTotals() CollectiveStat {
	var t CollectiveStat
	for i := range collStats {
		t.Calls += collStats[i].calls.Load()
		t.NS += collStats[i].ns.Load()
		t.Bytes += collStats[i].bytes.Load()
	}
	return t
}

// CollectiveSnapshot returns the non-zero counters keyed by kind name.
func CollectiveSnapshot() map[string]CollectiveStat {
	m := make(map[string]CollectiveStat)
	for i := range collStats {
		s := CollectiveStat{
			Calls: collStats[i].calls.Load(),
			NS:    collStats[i].ns.Load(),
			Bytes: collStats[i].bytes.Load(),
		}
		if s.Calls != 0 {
			m[Collective(i).String()] = s
		}
	}
	return m
}

// FormatCollectiveSnapshot renders a snapshot as one stable-ordered line.
func FormatCollectiveSnapshot(m map[string]CollectiveStat) string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	for i, k := range names {
		if i > 0 {
			sb.WriteString(" ")
		}
		s := m[k]
		fmt.Fprintf(&sb, "%s{calls=%d ns=%d bytes=%d}", k, s.Calls, s.NS, s.Bytes)
	}
	return sb.String()
}

// ResetCollectiveStats zeroes all per-collective counters.
func ResetCollectiveStats() {
	for i := range collStats {
		collStats[i].calls.Store(0)
		collStats[i].ns.Store(0)
		collStats[i].bytes.Store(0)
	}
}

// Phase identifies one component of a clustering iteration.
type Phase int

const (
	// FindBest is the local modularity-gain sweep.
	FindBest Phase = iota
	// BroadcastDelegates is the collective that agrees on delegate moves.
	BroadcastDelegates
	// SwapGhost is the ghost community-state exchange.
	SwapGhost
	// Other covers community bookkeeping, Σtot synchronization, and the
	// modularity reduction.
	Other

	numPhases
)

// NumPhases is the number of distinct phases.
const NumPhases = int(numPhases)

func (p Phase) String() string {
	switch p {
	case FindBest:
		return "FindBestCommunity"
	case BroadcastDelegates:
		return "BroadcastDelegates"
	case SwapGhost:
		return "SwapGhostVertexState"
	case Other:
		return "Other"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Breakdown accumulates time per phase.
type Breakdown struct {
	Durations [NumPhases]time.Duration
	Iters     int
}

// Add accumulates d into phase p.
func (b *Breakdown) Add(p Phase, d time.Duration) {
	b.Durations[p] += d
}

// Merge adds another breakdown into this one.
func (b *Breakdown) Merge(o Breakdown) {
	for i := range b.Durations {
		b.Durations[i] += o.Durations[i]
	}
	b.Iters += o.Iters
}

// Total returns the summed duration over all phases.
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b.Durations {
		t += d
	}
	return t
}

// PerIter returns the mean per-iteration duration of phase p.
func (b *Breakdown) PerIter(p Phase) time.Duration {
	if b.Iters == 0 {
		return 0
	}
	return b.Durations[p] / time.Duration(b.Iters)
}

// String formats the breakdown as a single line.
func (b *Breakdown) String() string {
	var sb strings.Builder
	for i := 0; i < NumPhases; i++ {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%v", Phase(i), b.Durations[i].Round(time.Microsecond))
	}
	return sb.String()
}

// Timer measures one phase at a time.
type Timer struct {
	b     *Breakdown
	phase Phase
	start time.Time
	open  bool
}

// NewTimer returns a Timer writing into b.
func NewTimer(b *Breakdown) *Timer { return &Timer{b: b} }

// Start begins timing phase p, closing any open phase first.
func (t *Timer) Start(p Phase) {
	t.Stop()
	t.phase = p
	t.start = time.Now()
	t.open = true
}

// Stop closes the open phase, if any.
func (t *Timer) Stop() {
	if t.open {
		t.b.Add(t.phase, time.Since(t.start))
		t.open = false
	}
}
