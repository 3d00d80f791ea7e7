package core

import (
	"errors"
	"testing"

	"repro/internal/comm"
	"repro/internal/wire"
)

// ghostStage is a rank-0-of-2 stage over an 8-vertex ID space: rank 0 owns
// the even vertices, so the odd ones are the ghosts a peer may publish.
func ghostStage() *stage {
	return &stage{p: 2, rnk: 0, n: 8, comm: []int32{0, 1, 2, 3, 4, 5, 6, 7}}
}

// ghostFrame encodes (vertex, label) pairs as ghostSwap sends them.
func ghostFrame(pairs ...int64) []byte {
	b := wire.NewBuffer(0)
	for _, v := range pairs {
		b.PutVarint(v)
	}
	return b.Bytes()
}

func TestGhostFrameApplies(t *testing.T) {
	s := ghostStage()
	var changed []int
	s.onGhostChange = func(v int) { changed = append(changed, v) }
	n, err := s.applyGhostFrame(1, ghostFrame(1, 0, 3, 3, 7, 2))
	if err != nil || n != 3 {
		t.Fatalf("applyGhostFrame = (%d, %v), want (3, nil)", n, err)
	}
	if s.comm[1] != 0 || s.comm[3] != 3 || s.comm[7] != 2 {
		t.Errorf("labels not applied: %v", s.comm)
	}
	if len(changed) != 2 || changed[0] != 1 || changed[1] != 7 {
		t.Errorf("onGhostChange saw %v, want [1 7] (vertex 3 kept its label)", changed)
	}
}

// TestGhostFrameRejectsMalformed feeds frames whose vertex or label is out
// of range, whose vertex this rank owns, or that end mid-pair: each must
// return an error wrapping comm.ErrMalformed instead of indexing with it.
func TestGhostFrameRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"vertex negative":    ghostFrame(-1, 0),
		"vertex past n":      ghostFrame(8, 0),
		"vertex huge":        ghostFrame(1<<40, 0),
		"vertex owned here":  ghostFrame(1, 1, 2, 0),
		"label negative":     ghostFrame(3, -1),
		"label past n":       ghostFrame(3, 8),
		"label past int32":   ghostFrame(3, 1<<32),
		"truncated pair":     ghostFrame(1, 0, 3),
		"truncated varint":   {0x80},
		"bad after good one": ghostFrame(5, 5, 9, 1),
	}
	for name, frame := range cases {
		s := ghostStage()
		_, err := s.applyGhostFrame(1, frame)
		if !errors.Is(err, comm.ErrMalformed) {
			t.Errorf("%s: err = %v, want one wrapping comm.ErrMalformed", name, err)
		}
		for v, c := range s.comm {
			if c < 0 || int(c) >= s.n {
				t.Errorf("%s: planted out-of-range label %d at vertex %d", name, c, v)
			}
		}
	}
}

// FuzzGhostFrame feeds arbitrary bytes to the ghost-swap decoder: it must
// either apply every pair of the frame or return an error wrapping
// comm.ErrMalformed, never panic and never plant an out-of-range label.
func FuzzGhostFrame(f *testing.F) {
	f.Add(ghostFrame(1, 0, 3, 3, 7, 2))
	f.Add(ghostFrame(8, 0))
	f.Add(ghostFrame(2, 0))
	f.Add(ghostFrame(3, -1))
	f.Add(ghostFrame(1, 0, 3))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		s := ghostStage()
		n, err := s.applyGhostFrame(1, frame)
		for v, c := range s.comm {
			if c < 0 || int(c) >= s.n {
				t.Fatalf("planted out-of-range label %d at vertex %d", c, v)
			}
		}
		if err != nil {
			if !errors.Is(err, comm.ErrMalformed) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// Applied: every pair landed, the last write to a vertex winning.
		want := ghostStage().comm
		pairs := int64(0)
		ref := wire.NewReader(frame)
		for ref.Remaining() > 0 {
			v, c := ref.Varint(), ref.Varint()
			want[v] = int32(c)
			pairs++
		}
		if n != pairs {
			t.Fatalf("applied %d pairs, frame holds %d", n, pairs)
		}
		for v := range want {
			if s.comm[v] != want[v] {
				t.Fatalf("vertex %d: label %d, frame says %d", v, s.comm[v], want[v])
			}
		}
	})
}
