package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/trace"
)

// span is one traced interval. Start and End are nanoseconds since the
// recorder was made; Parent is 0 for a root span; Rank is -1 outside the
// rank goroutines.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory until dump writes them out.
// A nil *recorder records nothing, so untraced runs pass nil.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{t0: trace.Now()} }

// openSpan is a span whose end has not been recorded yet.
type openSpan struct {
	rc     *recorder
	id     int64
	parent int64
	layer  string
	rank   int
	start  time.Time
}

// open starts a span now; its ID is known at once so children can name it.
func (rc *recorder) open(layer string, rank int, parent int64) openSpan {
	if rc == nil {
		return openSpan{}
	}
	return openSpan{rc: rc, id: rc.nextID.Add(1), parent: parent, layer: layer, rank: rank, start: trace.Now()}
}

func (s openSpan) close() {
	if s.rc != nil {
		s.rc.add(s.id, s.parent, s.layer, s.rank, s.start, trace.Now())
	}
}

// add records a finished span; id 0 draws a fresh ID.
func (rc *recorder) add(id, parent int64, layer string, rank int, start, end time.Time) {
	if rc == nil {
		return
	}
	if id == 0 {
		id = rc.nextID.Add(1)
	}
	sp := span{ID: id, Parent: parent, Layer: layer, Rank: rank,
		Start: start.Sub(rc.t0).Nanoseconds(), End: end.Sub(rc.t0).Nanoseconds()}
	rc.mu.Lock()
	rc.spans = append(rc.spans, sp)
	rc.mu.Unlock()
}

// dump writes the spans as JSON lines and returns how many it wrote.
func (rc *recorder) dump(path string) (int, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range rc.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(rc.spans), f.Close()
}

// countingComm decorates one rank's endpoint. It counts the messages and
// bytes the rank sends and the time the rank has at least one Recv
// outstanding. With 4 ranks on fewer cores that time includes waiting for
// peers the scheduler has descheduled, and inside the streaming alltoall
// it overlaps decoding of frames that already arrived.
type countingComm struct {
	comm.Comm
	rc     *recorder
	parent int64

	msgs  atomic.Int64
	bytes atomic.Int64

	mu       sync.Mutex
	inflight int
	since    time.Time
	blocked  time.Duration
}

func (c *countingComm) Send(dst, tag int, data []byte) error {
	c.msgs.Add(1)
	c.bytes.Add(int64(len(data)))
	//lint:ignore tagconst decorator forwards the caller's tag verbatim
	return c.Comm.Send(dst, tag, data)
}

func (c *countingComm) Recv(src, tag int) ([]byte, error) {
	c.mu.Lock()
	if c.inflight == 0 {
		c.since = trace.Now()
	}
	c.inflight++
	c.mu.Unlock()

	//lint:ignore tagconst decorator forwards the caller's tag verbatim
	data, err := c.Comm.Recv(src, tag)

	c.mu.Lock()
	c.inflight--
	if c.inflight == 0 {
		now := trace.Now()
		c.blocked += now.Sub(c.since)
		c.rc.add(0, c.parent, "comm.recv_blocked", c.Rank(), c.since, now)
	}
	c.mu.Unlock()
	return data, err
}
