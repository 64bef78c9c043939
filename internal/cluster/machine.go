package cluster

import (
	"sync"
	"time"

	"benu/internal/exec"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/vcbc"
)

// MachineConfig describes one worker machine of Fig. 2: the compiled
// plan its threads execute, the store behind its DB cache, and the
// execution settings every thread shares.
type MachineConfig struct {
	Prog    *exec.Program
	Store   kv.Store
	Ord     *graph.TotalOrder
	Threads int
	// CacheBytes is the machine's DB cache capacity (0 disables it).
	CacheBytes int64
	// Source configures the cached source. Its Compact setting and its
	// registry (required) also apply to the executors and to the
	// cluster.task spans.
	Source               exec.SourceOptions
	Prefetch             bool
	TriangleCacheEntries int
	// DegreeOf feeds the degree filter of degree-filtered plans (it is
	// ignored for other plans); LabelOf supplies data-vertex labels.
	DegreeOf func(v int64) int
	LabelOf  func(v int64) int64
	// Emit / EmitCode stream emissions straight to the caller, under
	// exec.Options' contract.
	Emit     func(f []int64) bool
	EmitCode func(c *vcbc.Code) bool
	// BufferMatches / BufferCodes instead collect each attempt's
	// emissions, copied, into Attempt.Matches / Attempt.Codes, so the
	// feed can deliver them only once the attempt succeeds.
	BufferMatches bool
	BufferCodes   bool
}

// Attempt is one finished execution of a task on one thread. Its
// buffers are reused by the thread's next attempt: a feed that retains
// them must copy.
type Attempt struct {
	Stats    exec.Stats
	Matches  [][]int64
	Codes    []*vcbc.Code
	Duration time.Duration
	Err      error
}

// Feed decides which tasks reach a machine and what happens to their
// results. Each thread th alternates Next and Finish, so state a feed
// keeps per thread index needs no lock.
type Feed struct {
	// Next blocks until thread th has a task; false ends the thread.
	Next func(th int) (exec.Task, bool)
	// Finish takes the attempt at the task Next last returned to th;
	// false ends the thread.
	Finish func(th int, a *Attempt) bool
}

// Machine is the runtime core both the simulated cluster and the
// networked worker run: one shared cached source and a pool of
// executor threads pulling tasks from a Feed. It knows nothing about
// retries or RPC; those belong to the feed.
type Machine struct {
	cfg  MachineConfig
	src  *exec.CachedSource
	opts exec.Options
}

// NewMachine builds the machine's cached source and the executor
// options its threads share.
func NewMachine(cfg MachineConfig) *Machine {
	m := &Machine{
		cfg: cfg,
		src: exec.NewCachedSourceWith(cfg.Store, cfg.CacheBytes, cfg.Source),
		opts: exec.Options{
			Emit:                 cfg.Emit,
			EmitCode:             cfg.EmitCode,
			TriangleCacheEntries: cfg.TriangleCacheEntries,
			LabelOf:              cfg.LabelOf,
			Obs:                  cfg.Source.Obs,
			Prefetch:             cfg.Prefetch,
			CompactAdjacency:     cfg.Source.Compact,
		},
	}
	if cfg.Prog.Plan.DegreeFiltered {
		m.opts.DegreeOf = cfg.DegreeOf
	}
	return m
}

// Source returns the machine's cached source (for its counters).
func (m *Machine) Source() *exec.CachedSource { return m.src }

// Run drains feed on the machine's threads and returns once every
// thread has stopped.
func (m *Machine) Run(feed Feed) {
	var wg sync.WaitGroup
	for th := 0; th < m.cfg.Threads; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.thread(th, feed)
		}()
	}
	wg.Wait()
}

// thread is one working thread: run each task under a cluster.task
// span and hand the attempt back to the feed.
func (m *Machine) thread(th int, feed Feed) {
	var a Attempt
	opts := m.opts
	if m.cfg.BufferMatches {
		opts.Emit = func(f []int64) bool {
			a.Matches = append(a.Matches, append([]int64(nil), f...))
			return true
		}
	}
	if m.cfg.BufferCodes {
		opts.EmitCode = func(c *vcbc.Code) bool {
			a.Codes = append(a.Codes, c.Clone())
			return true
		}
	}
	e := exec.NewExecutor(m.cfg.Prog, m.src, m.cfg.Store.NumVertices(), m.cfg.Ord, opts)
	for {
		t, ok := feed.Next(th)
		if !ok {
			return
		}
		a.Matches, a.Codes = a.Matches[:0], a.Codes[:0]
		sp := m.cfg.Source.Obs.StartSpan("cluster.task")
		a.Stats, a.Err = e.Run(t)
		a.Duration = sp.End()
		if !feed.Finish(th, &a) {
			return
		}
	}
}
