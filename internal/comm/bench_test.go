package comm

import (
	"fmt"
	"testing"
	"time"
)

func BenchmarkBarrier(b *testing.B) {
	for _, p := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			err := RunWorld(p, func(c Comm) error {
				for i := 0; i < b.N; i++ {
					if err := Barrier(c); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkAllreduceScalar(b *testing.B) {
	for _, p := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			err := RunWorld(p, func(c Comm) error {
				for i := 0; i < b.N; i++ {
					if _, err := AllreduceFloat64Sum(c, 1.0); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkAlltoallv(b *testing.B) {
	for _, size := range []int{64, 4096} {
		b.Run(fmt.Sprintf("p=8/msg=%dB", size), func(b *testing.B) {
			payload := make([]byte, size)
			b.SetBytes(int64(8 * size))
			err := RunWorld(8, func(c Comm) error {
				out := make([][]byte, c.Size())
				for i := range out {
					out[i] = payload
				}
				for i := 0; i < b.N; i++ {
					if _, err := Alltoallv(c, out); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkBcast(b *testing.B) {
	payload := make([]byte, 1<<14)
	b.SetBytes(1 << 14)
	err := RunWorld(8, func(c Comm) error {
		for i := 0; i < b.N; i++ {
			var in []byte
			if c.Rank() == 0 {
				in = payload
			}
			if _, err := Bcast(c, 0, in); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPointToPoint(b *testing.B) {
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	err := RunWorld(2, func(c Comm) error {
		other := 1 - c.Rank()
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				if err := c.Send(other, 0, payload); err != nil {
					return err
				}
				if _, err := c.Recv(other, 1); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(other, 0); err != nil {
					return err
				}
				if err := c.Send(other, 1, payload); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// delayOnlyChaos is the latency-injection schedule the overlap benchmarks
// run under: every message is delayed by a uniform duration in (0, 1ms],
// nothing is dropped or failed. Distinct (dst, tag) lanes sleep
// concurrently, so a collective that posts all its sends up front pays
// roughly the max of its peers' delays, while a sequential one pays the sum.
func delayOnlyChaos() ChaosOptions {
	return ChaosOptions{Seed: 7, DelayProb: 1, MaxDelay: time.Millisecond}
}

func benchAlltoallvUnderDelay(b *testing.B, fn func(Comm, [][]byte) ([][]byte, error)) {
	payload := make([]byte, 1024)
	b.SetBytes(int64(8 * len(payload)))
	err := RunWorldChaos(8, delayOnlyChaos(), func(c Comm) error {
		out := make([][]byte, c.Size())
		for i := range out {
			out[i] = payload
		}
		for i := 0; i < b.N; i++ {
			if _, err := fn(c, out); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAlltoallvSeq vs BenchmarkAlltoallvOverlap is the headline A/B of
// the overlapped engine: same payloads, same chaos schedule, the only
// difference is posting all sends before the first receive.
func BenchmarkAlltoallvSeq(b *testing.B)     { benchAlltoallvUnderDelay(b, AlltoallvSeq) }
func BenchmarkAlltoallvOverlap(b *testing.B) { benchAlltoallvUnderDelay(b, Alltoallv) }

// AlltoallvSeq is the sequential reference of Alltoallv: p−1 blocking
// Send/Recv steps, so its latency is the sum over peers instead of the
// max. The conformance suite checks the overlapped exchange against it
// byte for byte.
func AlltoallvSeq(c Comm, out [][]byte) ([][]byte, error) {
	p, r := c.Size(), c.Rank()
	if len(out) != p {
		return nil, fmt.Errorf("comm: Alltoallv needs %d buffers, got %d", p, len(out))
	}
	in := make([][]byte, p)
	in[r] = append([]byte{}, out[r]...)
	for step := 1; step < p; step++ {
		dst, src := (r+step)%p, (r-step+p)%p
		if err := c.Send(dst, tagAlltoallv, out[dst]); err != nil {
			return nil, err
		}
		got, err := c.Recv(src, tagAlltoallv)
		if err != nil {
			return nil, err
		}
		in[src] = got
	}
	return in, nil
}
