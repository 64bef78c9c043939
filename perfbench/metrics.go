package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// metric is one reported name. BENCHMARK.json at the repository root
// lists the same names, units and bounds; a test keeps the two equal.
type metric struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median an end-to-end metric
	// may worsen by before a change counts as a regression.
	bound float64
	// moves names the end-to-end metric and workload a per-layer metric
	// should move.
	moves string
}

// endToEnd are the metrics a user of the system sees, reported with
// tracing off as medians over a run's jobs.
var endToEnd = []metric{
	{name: "job_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_heap_mb", unit: "MiB", better: "lower", bound: 0.1},
}

// perLayer are the traced run's metrics, each named after the module
// it measures.
var perLayer = []metric{
	{name: "plan.search_s", unit: "s", better: "lower", moves: "setup_s, mostly q1-local"},
	{name: "plan.alpha", unit: "count", better: "lower", moves: "setup_s, mostly q1-local"},
	{name: "plan.beta", unit: "count", better: "lower", moves: "setup_s, mostly q1-local"},
	{name: "estimate.stats_s", unit: "s", better: "lower", moves: "setup_s on tri-local"},
	{name: "exec.task_busy_s", unit: "s", better: "lower", moves: "job_s on q1-local"},
	{name: "exec.task_p50_us", unit: "us", better: "lower", moves: "job_s on q1-local"},
	{name: "exec.task_p99_us", unit: "us", better: "lower", moves: "job_s on q1-local"},
	{name: "exec.intersect", unit: "count", better: "lower", moves: "cpu_s on q1-local"},
	{name: "exec.enumerate_steps", unit: "count", better: "lower", moves: "cpu_s on q1-local"},
	{name: "exec.dbq", unit: "count", better: "lower", moves: "cpu_s on q1-local"},
	{name: "exec.matches", unit: "count", better: "higher", moves: "cpu_s on q1-local"},
	{name: "exec.tricache.hit_rate", unit: "ratio", better: "higher", moves: "job_s on tri-local"},
	{name: "cache.hit_rate", unit: "ratio", better: "higher", moves: "job_s, cpu_s, peak_heap_mb on tri-local; flat on q1-local"},
	{name: "cache.misses", unit: "count", better: "lower", moves: "job_s, cpu_s, peak_heap_mb on tri-local; flat on q1-local"},
	{name: "cache.evictions", unit: "count", better: "lower", moves: "job_s, cpu_s, peak_heap_mb on tri-local; flat on q1-local"},
	{name: "source.store_trips", unit: "count", better: "lower", moves: "job_s on tri-local and tri-net"},
	{name: "source.keys_per_trip", unit: "keys/trip", better: "higher", moves: "job_s on tri-local and tri-net"},
	{name: "source.bytes_fetched", unit: "B", better: "lower", moves: "job_s on tri-local and tri-net"},
	{name: "source.singleflight.joins", unit: "count", better: "lower", moves: "job_s on tri-local and tri-net"},
	{name: "source.prefetch.use_ratio", unit: "ratio", better: "higher", moves: "job_s on tri-local and tri-net"},
	{name: "kv.calls", unit: "count", better: "lower", moves: "job_s, cpu_s on tri-net"},
	{name: "kv.keys", unit: "count", better: "lower", moves: "job_s, cpu_s on tri-net"},
	{name: "kv.bytes", unit: "B", better: "lower", moves: "job_s, cpu_s on tri-net"},
	{name: "kv.busy_s", unit: "s", better: "lower", moves: "job_s, cpu_s on tri-net"},
	{name: "kv.call_p50_us", unit: "us", better: "lower", moves: "job_s, cpu_s on tri-net"},
	{name: "kv.call_p99_us", unit: "us", better: "lower", moves: "job_s, cpu_s on tri-net"},
	{name: "kv.server_busy_s", unit: "s", better: "lower", moves: "job_s, cpu_s on tri-net"},
	{name: "kv.wire_s", unit: "s", better: "lower", moves: "job_s, cpu_s on tri-net"},
	{name: "kv.errors", unit: "count", better: "lower", moves: "fail_frac"},
	{name: "cluster.thread_util", unit: "ratio", better: "higher", moves: "job_s on tri-local"},
	{name: "cluster.tasks", unit: "count", better: "lower", moves: "job_s on tri-local"},
	{name: "cluster.split_tasks", unit: "count", better: "lower", moves: "job_s on tri-local"},
	{name: "sched.rpc_bytes", unit: "B", better: "lower", moves: "job_s, cpu_s on tri-net"},
	{name: "sched.rpc_writes", unit: "count", better: "lower", moves: "job_s, cpu_s on tri-net"},
	{name: "sched.rpcs_per_task", unit: "1/task", better: "lower", moves: "job_s, cpu_s on tri-net"},
	{name: "sched.thread_util", unit: "ratio", better: "higher", moves: "job_s, cpu_s on tri-net"},
	{name: "sched.steals", unit: "count", better: "lower", moves: "job_s, fail_frac on tri-net"},
	{name: "sched.leases_expired", unit: "count", better: "lower", moves: "job_s, fail_frac on tri-net"},
	{name: "sched.duplicates", unit: "count", better: "lower", moves: "job_s, fail_frac on tri-net"},
	{name: "sched.retried", unit: "count", better: "lower", moves: "job_s, fail_frac on tri-net"},
	{name: "journal.records", unit: "count", better: "lower", moves: "job_s on tri-net"},
	{name: "journal.bytes", unit: "B", better: "lower", moves: "job_s on tri-net"},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower", moves: "cpu_s, peak_heap_mb on tri-local"},
	{name: "runtime.alloc_mb", unit: "MiB", better: "lower", moves: "cpu_s, peak_heap_mb on tri-local"},
	{name: "trace_overhead", unit: "ratio", better: "lower", moves: "traced job_s / untraced job_s"},
	{name: "fail_frac", unit: "ratio", better: "lower", moves: "failed or retried task attempts / task attempts"},
}

// processCPU returns the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// heapPeakEvery is how often the heap-peak sampler reads the heap size.
const heapPeakEvery = time.Millisecond

// heapPeak samples the bytes held by heap objects, live or not yet
// swept, and keeps the largest reading.
type heapPeak struct {
	quit chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(heapPeakEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapPeak) stop() uint64 {
	close(h.quit)
	h.wg.Wait()
	return h.peak
}
