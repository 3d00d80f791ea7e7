package comm

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzAllreduceBytes drives the recursive-doubling allreduce through the
// in-process transport with fuzzer-chosen payloads and world sizes,
// checking the result on every rank against a serially computed
// expectation. The combine is bytewise addition over the common prefix
// with the longer tail appended — deliberately length-asymmetric, because
// the non-power-of-two fold is where length-handling bugs hide. Seeds cover the empty payload and the
// single-rank world.
func FuzzAllreduceBytes(f *testing.F) {
	f.Add(1, []byte{})
	f.Add(1, []byte{0xff})
	f.Add(2, []byte{})
	f.Add(3, []byte{1, 2, 3})
	f.Add(4, []byte("payload"))
	f.Add(5, []byte{0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(8, bytes.Repeat([]byte{0xab}, 257))

	f.Fuzz(func(t *testing.T, p int, base []byte) {
		if p < 1 || p > 8 {
			t.Skip()
		}
		if len(base) > 1<<16 {
			t.Skip()
		}

		// Rank r contributes base rotated by r with r added bytewise, so
		// every contribution is distinct but derivable.
		contrib := func(r int) []byte {
			out := make([]byte, len(base))
			for i := range base {
				out[i] = base[(i+r)%len(base)] + byte(r)
			}
			return out
		}
		combine := func(a, b []byte) []byte {
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			out := make([]byte, 0, max(len(a), len(b)))
			for i := 0; i < n; i++ {
				out = append(out, a[i]+b[i])
			}
			if len(a) > n {
				out = append(out, a[n:]...)
			} else {
				out = append(out, b[n:]...)
			}
			return out
		}

		// Serial ground truth: left fold in rank order. Both collectives
		// promise a combine order equivalent to this for associative and
		// commutative operators; bytewise add is both.
		want := contrib(0)
		for r := 1; r < p; r++ {
			want = combine(want, contrib(r))
		}

		err := RunWorld(p, func(c Comm) error {
			got, err := AllreduceBytes(c, contrib(c.Rank()), combine)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d got %x want %x", c.Rank(), got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d len=%d: %v", p, len(base), err)
		}
	})
}
