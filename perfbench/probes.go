package main

// Outside-in probes. Each one wraps a public seam of the program — the
// kv.Store SPI and the net.Conn the scheduler master serves RPCs on —
// and only times or counts the calls that cross it. None of them
// changes what the program computes, and none reaches inside a layer.

import (
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
)

// storeSampleEvery is the span sampling period for store calls: one
// call in storeSampleEvery is recorded as a span. Counts and the
// latency histogram see every call.
const storeSampleEvery = 64

// callStats accumulates what crossed one side of the store SPI. Several
// probes may share one (the two storage partitions of tri-net).
type callStats struct {
	calls  atomic.Int64
	keys   atomic.Int64
	bytes  atomic.Int64
	errors atomic.Int64
	busyNs atomic.Int64
	lat    obs.Histogram // per-call latency, ns
}

// storeProbe is a timing kv.Store decorator. It hands back exactly what
// the wrapped store returned — the same lists, or nil and the same
// error — so the SPI's fail-fast, no-partial-results contract holds
// through it.
type storeProbe struct {
	inner kv.Store
	stats *callStats
	spans *spanLog // nil: no spans
	job   int
	span  int64 // parent span of sampled call spans
}

func (p *storeProbe) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	t0 := time.Now()
	lists, err := p.inner.GetAdjBatch(vs)
	t1 := time.Now()
	d := t1.Sub(t0).Nanoseconds()
	n := p.stats.calls.Add(1)
	p.stats.busyNs.Add(d)
	p.stats.lat.Record(d)
	if err != nil {
		p.stats.errors.Add(1)
		return lists, err
	}
	var b int64
	for _, l := range lists {
		b += l.SizeBytes()
	}
	p.stats.keys.Add(int64(len(vs)))
	p.stats.bytes.Add(b)
	if n%storeSampleEvery == 1 {
		p.spans.add("kv.call", p.job, p.span, t0, t1)
	}
	return lists, err
}

func (p *storeProbe) NumVertices() int { return p.inner.NumVertices() }

// connStats counts the bytes and writes that crossed a set of
// connections.
type connStats struct {
	readBytes  atomic.Int64
	writeBytes atomic.Int64
	writes     atomic.Int64
}

// wrap is a sched.MasterConfig.WrapConn hook: every accepted connection
// is counted into s.
func (s *connStats) wrap(c net.Conn) net.Conn { return &countConn{Conn: c, stats: s} }

// countConn is a net.Conn that counts what is read from and written to
// it.
type countConn struct {
	net.Conn
	stats *connStats
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.stats.readBytes.Add(int64(n))
	return n, err
}

func (c *countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.stats.writeBytes.Add(int64(n))
	c.stats.writes.Add(1)
	return n, err
}

// span is one timed interval of a traced job. Start and End are
// nanoseconds since the log's origin; Parent is 0 for a job's root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced jobs carry no branches.
type spanLog struct {
	origin time.Time
	next   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// reserve hands out a span ID ahead of the span's end, so that children
// recorded first can name it as their parent.
func (l *spanLog) reserve() int64 {
	if l == nil {
		return 0
	}
	return l.next.Add(1)
}

// add records a finished span under a fresh ID and returns the ID.
func (l *spanLog) add(name string, job int, parent int64, start, end time.Time) int64 {
	return l.addID(l.reserve(), name, job, parent, start, end)
}

// addID records a finished span under an ID from reserve.
func (l *spanLog) addID(id int64, name string, job int, parent int64, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	s := span{ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds()}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
	return id
}

// write stores the spans as JSON lines, one span a line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	return f.Close()
}
