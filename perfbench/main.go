// Command perfbench is the repository's benchmark. It generates one
// workload's input from a seed, sets up and runs the enumeration job
// through the program's public entry points again and again for a fixed
// time, checks every match count against the brute-force reference, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as one JSON object on its last line of output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tri-local --seed 1 --seconds 20 --trace 0
//
// README.md beside this file describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"benu/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload name: tri-local, q1-local or tri-net")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long to keep starting jobs")
	fs.IntVar(&o.trace, "trace", 0, "1 runs traced and untraced jobs in turn and prints the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_out", "directory for journals and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	rep, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report is the result line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jobStats is what one iteration measured.
type jobStats struct {
	traced   bool
	setup    time.Duration
	wall     time.Duration
	cpu      time.Duration
	peakHeap float64 // MiB
	out      outcome
	err      error
	layers   map[string]float64
}

func bench(o options, stdout io.Writer) (*report, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	in, err := makeInput(w, o.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "workload %s seed %d: pattern %s, %d vertices, %d edges, %d reference matches\n",
		w.name, o.seed, w.pattern, in.g.NumVertices(), in.g.NumEdges(), in.want)

	var spans *spanLog
	if o.trace == 1 {
		spans = newSpanLog()
	}
	var jobs []jobStats
	limit := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		it := &iteration{in: in, job: i, reg: obs.NewRegistry(), out: o.out}
		if o.trace == 1 && i%2 == 1 {
			it.tr = &tracer{spans: spans, layers: map[string]float64{}}
		}
		js := runIteration(w, it)
		jobs = append(jobs, js)
		if js.err != nil {
			fmt.Fprintf(stdout, "job %d failed: %v\n", i, js.err)
		} else {
			fmt.Fprintf(stdout, "job %d traced=%v: setup %.4f s, job %.4f s, cpu %.4f s, peak heap %.2f MiB\n",
				i, js.traced, js.setup.Seconds(), js.wall.Seconds(), js.cpu.Seconds(), js.peakHeap)
		}
		if time.Since(start) >= limit && (o.trace == 0 || i >= 1) {
			break
		}
	}

	rep := &report{Correct: true, Metrics: map[string]value{}}
	var plain, traced []jobStats
	for _, js := range jobs {
		rep.Attempted += js.out.attempts
		rep.Failed += js.out.failed
		if js.err != nil || js.out.matches != in.want {
			rep.Correct = false
		}
		if js.traced {
			traced = append(traced, js)
		} else {
			plain = append(plain, js)
		}
	}
	e2e := summarize(plain)
	fmt.Fprintf(stdout, "%d untraced jobs, %d traced jobs\n", len(plain), len(traced))
	for _, m := range endToEnd {
		s := e2e[m.name]
		fmt.Fprintf(stdout, "  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g %s\n", m.name, s.med, s.q1, s.q3, m.unit)
	}
	fmt.Fprintf(stdout, "  %-14s %.6g (%d failed of %d task attempts)\n", "fail_frac",
		ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Failed, rep.Attempted)

	if o.trace == 0 {
		for _, m := range endToEnd {
			rep.Metrics[m.name] = value{Value: e2e[m.name].med, Unit: m.unit}
		}
		return rep, nil
	}

	layers := medianLayers(traced)
	layers["trace_overhead"] = ratio(summarize(traced)["job_s"].med, e2e["job_s"].med)
	layers["fail_frac"] = ratio(float64(rep.Failed), float64(rep.Attempted))
	fmt.Fprintf(stdout, "per-layer medians over %d traced jobs (-> the end-to-end metric it should move):\n", len(traced))
	for _, m := range perLayer {
		v := layers[m.name]
		rep.Metrics[m.name] = value{Value: v, Unit: m.unit}
		fmt.Fprintf(stdout, "  %-26s %-14.6g %-9s -> %s\n", m.name, v, m.unit, m.moves)
	}
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
	if err := spans.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "spans written to %s\n", path)
	return rep, nil
}

// runIteration sets up one job, runs it, checks its match count, and
// tears it down. Set-up and job are timed separately; tear-down is not
// timed.
func runIteration(w workload, it *iteration) jobStats {
	js := jobStats{traced: it.tr != nil}
	var rootID int64
	if it.tr != nil {
		rootID = it.tr.spans.reserve()
		it.tr.setupID = it.tr.spans.reserve()
		it.tr.runID = it.tr.spans.reserve()
	}
	runtime.GC()
	t0 := time.Now()
	d, err := w.setup(it)
	t1 := time.Now()
	js.setup = t1.Sub(t0)
	if err != nil {
		js.err = fmt.Errorf("set-up: %w", err)
		js.out = outcome{attempts: 1, failed: 1}
		return js
	}
	runtime.GC()
	rt0 := readRuntime()
	cpu0 := processCPU()
	peak := startHeapPeak()
	t2 := time.Now()
	js.out, js.err = d.run()
	t3 := time.Now()
	js.peakHeap = float64(peak.stop()) / (1 << 20)
	js.cpu = processCPU() - cpu0
	rt1 := readRuntime()
	js.wall = t3.Sub(t2)
	d.close()
	if js.err == nil && js.out.matches != it.in.want {
		js.err = fmt.Errorf("%d matches, want %d", js.out.matches, it.in.want)
	}
	if js.err != nil {
		js.out.attempts = max(js.out.attempts, 1)
		js.out.failed = js.out.attempts
	}
	if it.tr == nil {
		return js
	}
	sl := it.tr.spans
	sl.addID(it.tr.setupID, "setup", it.job, rootID, t0, t1)
	sl.addID(it.tr.runID, "run", it.job, rootID, t2, t3)
	sl.addID(rootID, "job", it.job, 0, t0, time.Now())
	readLayers(w, it, js, rt0, rt1)
	js.layers = it.tr.layers
	return js
}

// readLayers derives a traced job's per-layer metrics from the job's
// metrics registry, the probes, and the runtime.
func readLayers(w workload, it *iteration, js jobStats, rt0, rt1 runtimeSample) {
	tr := it.tr
	snap := it.reg.Snapshot()
	c := snap.Counters
	L := it.layer

	task := snap.Histograms["cluster.task.duration_ns"]
	busy := float64(task.Sum) / 1e9
	L("exec.task_busy_s", busy)
	L("exec.task_p50_us", float64(task.P50)/1e3)
	L("exec.task_p99_us", float64(task.P99)/1e3)
	L(w.util, ratio(busy, js.wall.Seconds()*float64(w.threads)))
	L("exec.intersect", float64(c["exec.instr.intersect"]))
	L("exec.enumerate_steps", float64(c["exec.instr.enumerate_steps"]))
	L("exec.dbq", float64(c["exec.instr.dbq"]))
	L("exec.matches", float64(c["exec.matches"]))
	L("exec.tricache.hit_rate", ratio(float64(c["exec.tricache.hits"]), float64(c["exec.tricache.hits"]+c["exec.tricache.misses"])))

	// cache.* is published by cluster.Run; a sched worker does not
	// publish its cache counters, so they read 0 on tri-net.
	L("cache.hit_rate", ratio(float64(c["cache.hits"]), float64(c["cache.hits"]+c["cache.misses"])))
	L("cache.misses", float64(c["cache.misses"]))
	L("cache.evictions", float64(c["cache.evictions"]))

	L("source.singleflight.joins", float64(c["source.singleflight.joins"]))
	L("source.prefetch.use_ratio", ratio(float64(c["source.prefetch.used"]), float64(c["source.prefetch.installed"])))

	cl := &tr.client
	calls, keys, bytes := float64(cl.calls.Load()), float64(cl.keys.Load()), float64(cl.bytes.Load())
	busyKV := float64(cl.busyNs.Load()) / 1e9
	lat := cl.lat.Snapshot()
	L("kv.calls", calls)
	L("kv.keys", keys)
	L("kv.bytes", bytes)
	L("kv.busy_s", busyKV)
	L("kv.call_p50_us", float64(lat.P50)/1e3)
	L("kv.call_p99_us", float64(lat.P99)/1e3)
	L("kv.errors", float64(cl.errors.Load()+tr.server.errors.Load()))
	// An in-process store is its own backend: no wire between them.
	serverBusy := busyKV
	if tr.remote {
		serverBusy = float64(tr.server.busyNs.Load()) / 1e9
		// A sched worker's source goes straight to the store: its
		// round trips are the probe's calls.
		L("source.store_trips", calls)
		L("source.keys_per_trip", ratio(keys, calls))
		L("source.bytes_fetched", bytes)
		rpcWrites := float64(tr.conn.writes.Load())
		L("sched.rpc_bytes", float64(tr.conn.readBytes.Load()+tr.conn.writeBytes.Load()))
		L("sched.rpc_writes", rpcWrites)
		L("sched.rpcs_per_task", ratio(rpcWrites, tr.layers["cluster.tasks"]))
		L("journal.records", float64(c["sched.journal.records"]))
	}
	L("kv.server_busy_s", serverBusy)
	L("kv.wire_s", busyKV-serverBusy)

	L("runtime.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	L("runtime.alloc_mb", float64(rt1.allocBytes-rt0.allocBytes)/(1<<20))
}

// stat is a median with its quartiles.
type stat struct{ med, q1, q3 float64 }

// summarize reduces the jobs' end-to-end measurements to medians.
func summarize(jobs []jobStats) map[string]stat {
	pick := func(f func(js jobStats) float64) stat {
		var xs []float64
		for _, js := range jobs {
			if js.err == nil {
				xs = append(xs, f(js))
			}
		}
		return quartiles(xs)
	}
	return map[string]stat{
		"job_s":        pick(func(js jobStats) float64 { return js.wall.Seconds() }),
		"setup_s":      pick(func(js jobStats) float64 { return js.setup.Seconds() }),
		"cpu_s":        pick(func(js jobStats) float64 { return js.cpu.Seconds() }),
		"peak_heap_mb": pick(func(js jobStats) float64 { return js.peakHeap }),
	}
}

// medianLayers reduces the traced jobs' per-layer values to medians; a
// metric a job did not report counts as 0.
func medianLayers(jobs []jobStats) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		var xs []float64
		for _, js := range jobs {
			if js.err == nil {
				xs = append(xs, js.layers[m.name])
			}
		}
		out[m.name] = quartiles(xs).med
	}
	return out
}

// quartiles returns the median and quartiles of xs by linear
// interpolation between order statistics; all zero when xs is empty.
func quartiles(xs []float64) stat {
	if len(xs) == 0 {
		return stat{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return stat{med: at(0.5), q1: at(0.25), q3: at(0.75)}
}
