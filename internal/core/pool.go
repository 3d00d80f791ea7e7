package core

import "repro/internal/par"

// Intra-rank parallelism. Each rank may run its read-only per-iteration
// kernels (hub-proposal computation, the global-modularity arc scan, the
// Σtot fetch's owner-side answer loop) on a small pool of worker goroutines. The
// pool itself lives in internal/par (extracted in PR 5 so the ingest and
// partitioning pipeline can share it); this file keeps core's historical
// names so the kernel call sites read unchanged.
//
// The determinism rules are par's: chunk boundaries are a pure function of
// the data size, and partial results combine on the caller goroutine in
// ascending chunk order — so every Workers setting produces bit-identical
// results. Kernels must not touch the communicator: collectives are matched
// by (source, tag) in program order on the rank's main goroutine, and a
// collective issued from a worker would race that matching (the
// collectivesym analyzer rejects collectives inside parFor/ParFor tasks).

// parGrain is the number of items that justify one chunk of parallel work.
const parGrain = par.Grain

// maxChunks caps the chunk count (and thereby the per-chunk scratch) of a
// single parFor.
const maxChunks = par.MaxChunks

// numChunks returns the chunk count for n items: a function of the data
// size only, so chunk boundaries are identical at every worker count.
func numChunks(n int) int { return par.NumChunks(n) }

// chunkSpan returns the half-open item range [lo, hi) of chunk c out of nc
// over n items. Contiguous, exhaustive, and deterministic.
func chunkSpan(n, nc, c int) (lo, hi int) { return par.ChunkSpan(n, nc, c) }

// defaultWorkers is the automatic intra-rank worker count: the host's
// parallelism divided by the world size (every rank is itself a goroutine
// competing for the same cores), floored at one.
func defaultWorkers(worldSize int) int { return par.DefaultWorkers(worldSize) }

// workerPool runs chunked kernels on nw goroutines (the caller participates
// as worker 0). A nil pool runs everything inline; close releases the
// goroutines.
type workerPool struct {
	p *par.Pool
}

// newWorkerPool returns a pool of nw workers, or nil when nw <= 1 (the
// serial path needs no goroutines at all).
func newWorkerPool(nw int) *workerPool {
	p := par.NewPool(nw)
	if p == nil {
		return nil
	}
	return &workerPool{p: p}
}

// close stops the worker goroutines. Safe on a nil pool.
func (p *workerPool) close() {
	if p != nil {
		p.p.Close()
	}
}

// parFor runs kernel(chunk, worker) for every chunk in [0, nChunks); see
// par.Pool.ParFor for the determinism contract.
func (p *workerPool) parFor(nChunks int, kernel func(chunk, worker int)) {
	if p == nil {
		for c := 0; c < nChunks; c++ {
			kernel(c, 0)
		}
		return
	}
	p.p.ParFor(nChunks, kernel)
}

// workers returns the worker-index space size of parFor kernels.
func (p *workerPool) workers() int {
	if p == nil {
		return 1
	}
	return p.p.Workers()
}
