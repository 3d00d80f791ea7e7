package main

import (
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"repro/internal/graph"
)

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func mb(bytes int64) float64 { return float64(bytes) / 1e6 }

// heapHighWater samples HeapInuse every 20 ms until the returned function is
// called, which stops the sampler, waits for it and returns the high-water
// mark in bytes.
func heapHighWater() func() uint64 {
	stop := make(chan struct{})
	out := make(chan uint64)
	go func() {
		//lint:ignore nondet the ticker only paces the sampling; nothing it decides reaches a solve
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		var high uint64
		for {
			runtime.ReadMemStats(&ms)
			high = max(high, ms.HeapInuse)
			//lint:ignore nondet stop or next sample: either order ends with the same high-water
			select {
			case <-stop:
				out <- high
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-out
	}
}

// totalAlloc returns the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// membershipHash fingerprints a membership, so repeated solves can be
// compared without keeping every membership alive.
func membershipHash(m graph.Membership) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range m {
		for i := range b {
			b[i] = byte(uint64(c) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
