package comm

import (
	"fmt"

	"repro/internal/trace"
)

// Mid-solve vertex migration (docs/PERFORMANCE.md, "Dynamic load
// rebalancing"). The rebalancer runs three personalized exchanges between
// clustering iterations — vertex payloads, ghost-subscription requests,
// and label replies — on their own tag so migration frames can never be
// confused with the per-iteration alltoallv traffic, and are accounted as
// their own collective kind (trace.CollMigrate) in the census.

// MigrationExchange is the overlapped personalized all-to-all of the
// vertex-migration protocol: it posts all p−1 sends on tagMigrate, then
// streams each inbound payload to fn as it arrives (own payload first,
// peers in arrival order). Like AlltoallvFunc, fn runs on the calling
// goroutine only and its effect must not depend on the arrival order; the
// payload slice is valid only during the callback.
//
// This is a symmetric collective: every rank of the world must call it,
// with the same schedule, or the world deadlocks.
func MigrationExchange(c Comm, out [][]byte, fn func(src int, payload []byte) error) error {
	p := c.Size()
	if len(out) != p {
		return fmt.Errorf("comm: MigrationExchange needs %d buffers, got %d", p, len(out))
	}
	r := c.Rank()
	if p == 1 {
		return fn(r, out[r])
	}
	defer collDone(trace.CollMigrate, collStart(), framesLen(out))
	for step := 1; step < p; step++ {
		dst := (r + step) % p
		if err := c.Send(dst, tagMigrate, out[dst]); err != nil {
			return err
		}
	}
	firstErr := fn(r, out[r])
	type arrival struct {
		src  int
		data []byte
		err  error
	}
	ch := make(chan arrival, p-1)
	for step := 1; step < p; step++ {
		src := (r - step + p) % p
		go func(src int) {
			got, err := c.Recv(src, tagMigrate)
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
