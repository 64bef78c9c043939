package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"benu/internal/cluster"
	"benu/internal/cluster/sched"
	"benu/internal/estimate"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
	"benu/internal/plan"
	"benu/internal/resilience"
)

// workload is one benchmark input: a generated data graph, a pattern,
// and the deployment that enumerates it. README.md says why each exists.
type workload struct {
	name    string
	graph   gen.PowerLawConfig // Seed comes from --seed
	pattern string
	// threads is the number of executor threads the job runs on; util
	// names the per-layer metric their busy share is reported under.
	threads int
	util    string
	setup   func(it *iteration) (deployment, error)
}

// Graph shapes: the pl-1m Holme–Kim shape and the Orkut stand-in's
// ("ok") shape. The vertex counts size one job to under a second on a
// 2-core machine, so that one run holds many jobs.
var (
	plShape = gen.PowerLawConfig{N: 60_000, M0: 4, EdgesPer: 3, Triad: 0.1}
	okShape = gen.PowerLawConfig{N: 3_000, M0: 4, EdgesPer: 6, Triad: 0.45}
	netN    = 6_000
)

func workloads() []workload {
	netShape := plShape
	netShape.N = netN
	return []workload{
		{
			name:    "tri-local",
			graph:   plShape,
			pattern: "triangle",
			threads: 2,
			util:    "cluster.thread_util",
			setup: func(it *iteration) (deployment, error) {
				return setupLocal(it, func(cfg *cluster.Config) { cfg.CacheBytes = it.in.g.SizeBytes() / 4 })
			},
		},
		{
			name:    "q1-local",
			graph:   okShape,
			pattern: "q1",
			threads: 2,
			util:    "cluster.thread_util",
			setup: func(it *iteration) (deployment, error) {
				return setupLocal(it, func(*cluster.Config) {})
			},
		},
		{
			name:    "tri-net",
			graph:   netShape,
			pattern: "triangle",
			threads: 2,
			util:    "sched.thread_util",
			setup:   setupNet,
		},
	}
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// input is what a workload generates from a seed: the data graph, the
// pattern, and the reference match count every job must reproduce.
type input struct {
	g    *graph.Graph
	p    *graph.Pattern
	want int64
}

// makeInput generates w's graph from seed and counts the pattern with
// the brute-force reference enumerator.
func makeInput(w workload, seed int64) (*input, error) {
	cfg := w.graph
	cfg.Seed = seed
	p, err := gen.PatternByName(w.pattern)
	if err != nil {
		return nil, err
	}
	g := gen.PowerLaw(cfg)
	return &input{g: g, p: p, want: graph.RefCount(p, g, graph.NewTotalOrder(g))}, nil
}

// deployment is a set-up job, ready to dispatch.
type deployment interface {
	// run enumerates the pattern and returns once the result is
	// complete and committed.
	run() (outcome, error)
	// close releases everything set-up started and waits for it to
	// stop.
	close()
}

// outcome is what a job committed.
type outcome struct {
	matches  int64
	attempts int64 // task attempts
	failed   int64 // task attempts that failed or were retried
}

// iteration is one set-up plus one job on a workload's input.
type iteration struct {
	in  *input
	job int           // job ID, shared by the job's spans
	reg *obs.Registry // the job's own metrics registry
	out string        // directory for files the job writes
	tr  *tracer       // nil when untraced
}

// tracer holds a traced job's probes and the per-layer values read
// from them.
type tracer struct {
	spans   *spanLog
	setupID int64 // parent span of the set-up phases
	runID   int64 // parent span of the job's store calls
	client  callStats
	server  callStats
	conn    connStats
	remote  bool // the store is behind a wire
	layers  map[string]float64
}

func (it *iteration) layer(name string, v float64) {
	if it.tr != nil {
		it.tr.layers[name] = v
	}
}

// phase runs one set-up step, recording it as a span when traced.
func (it *iteration) phase(name string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	if it.tr != nil {
		it.tr.spans.add(name, it.job, it.tr.setupID, t0, t1)
	}
	return t1.Sub(t0), err
}

// probe wraps a client-side store in the timing decorator when traced.
func (it *iteration) probe(s kv.Store) kv.Store {
	if it.tr == nil {
		return s
	}
	return &storeProbe{inner: s, stats: &it.tr.client, spans: it.tr.spans, job: it.job, span: it.tr.runID}
}

// planned is a job's plan and total order.
type planned struct {
	ord  *graph.TotalOrder
	best *plan.BestPlanResult
}

// plan computes the graph statistics, the total order and the best plan.
func (it *iteration) plan(opts plan.Options) (planned, error) {
	var st *estimate.Stats
	var pl planned
	d, _ := it.phase("estimate.stats", func() error {
		st = estimate.NewStats(it.in.g, estimate.MaxMomentDefault)
		return nil
	})
	it.layer("estimate.stats_s", d.Seconds())
	it.phase("graph.order", func() error {
		pl.ord = graph.NewTotalOrder(it.in.g)
		return nil
	})
	_, err := it.phase("plan.search", func() error {
		var err error
		pl.best, err = plan.GenerateBestPlan(it.in.p, st, opts)
		return err
	})
	if err != nil {
		return pl, err
	}
	it.layer("plan.search_s", pl.best.Stats.Elapsed.Seconds())
	it.layer("plan.alpha", float64(pl.best.Stats.Alpha))
	it.layer("plan.beta", float64(pl.best.Stats.Beta))
	return pl, nil
}

// localDeployment runs cluster.Run over an in-process kv.Local store on
// one machine with two threads and the prefetch-compact data plane.
type localDeployment struct {
	it    *iteration
	pl    planned
	store kv.Store
	cfg   cluster.Config
}

func setupLocal(it *iteration, tune func(*cluster.Config)) (deployment, error) {
	pl, err := it.plan(plan.AllOptions)
	if err != nil {
		return nil, err
	}
	var store kv.Store
	if _, err := it.phase("kv.open", func() error {
		local := kv.NewLocal(it.in.g)
		// The first read builds the store's compact index, a one-off
		// cost a long-lived store pays before its first job.
		_, err := local.GetAdjBatch([]int64{0})
		store = local
		return err
	}); err != nil {
		return nil, err
	}
	cfg := cluster.Defaults(it.in.g)
	cfg.Workers = 1
	cfg.ThreadsPerWorker = 2
	cfg.Prefetch = true
	cfg.CompactAdjacency = true
	cfg.Obs = it.reg
	tune(&cfg)
	return &localDeployment{it: it, pl: pl, store: it.probe(store), cfg: cfg}, nil
}

func (d *localDeployment) run() (outcome, error) {
	res, err := cluster.Run(d.pl.best.Plan, d.store, d.pl.ord, d.it.in.g.Degree, d.cfg)
	if err != nil {
		return outcome{}, err
	}
	it := d.it
	it.layer("source.store_trips", float64(res.StoreTrips))
	it.layer("source.keys_per_trip", ratio(float64(res.DBQueries), float64(res.StoreTrips)))
	it.layer("source.bytes_fetched", float64(res.BytesFetched))
	it.layer("cluster.tasks", float64(res.Tasks))
	it.layer("cluster.split_tasks", float64(res.SplitTasks))
	return outcome{
		matches:  res.Matches,
		attempts: int64(res.Tasks + res.TasksRetried),
		failed:   int64(res.TasksRetried + res.TasksFailed),
	}, nil
}

func (d *localDeployment) close() {}

// The tri-net deployment follows the benu-master and benu-worker flag
// defaults, except that the journal skips its per-commit fsync.
const (
	netStoreParts = 2
	netWorkers    = 2
	netTau        = 500
	netRetries    = 2
	netLease      = 3 * time.Second
	netCacheBytes = 32 << 20
	netRejoinFor  = 30 * time.Second
	jobTimeout    = 60 * time.Second
)

// netDeployment is a sched master and its workers in this process,
// with adjacency served by TCP storage nodes on loopback.
type netDeployment struct {
	it      *iteration
	servers []*kv.Server
	clients []*kv.Client
	master  *sched.Master
	workers []*sched.Worker
	journal string
}

func setupNet(it *iteration) (deployment, error) {
	pl, err := it.plan(plan.AllOptions)
	if err != nil {
		return nil, err
	}
	d := &netDeployment{it: it, journal: filepath.Join(it.out, fmt.Sprintf("journal-%d", it.job))}
	if it.tr != nil {
		it.tr.remote = true
	}
	if _, err := it.phase("kv.serve", d.serve); err != nil {
		d.close()
		return nil, err
	}
	if _, err := it.phase("sched.start_master", func() error { return d.startMaster(pl) }); err != nil {
		d.close()
		return nil, err
	}
	if _, err := it.phase("sched.join", d.join); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// serve starts the storage nodes: kv.ServeGraph's sharding, served
// through kv.Serve so that a traced job can time each backend.
func (d *netDeployment) serve() error {
	g := d.it.in.g
	var addrs []string
	for i := 0; i < netStoreParts; i++ {
		shard := kv.NewMapStore(kv.Shard(g, i, netStoreParts), g.NumVertices())
		// Build the shard's compact index now, as a long-lived storage
		// node has before any job reaches it. Vertex i lives in shard i.
		if _, err := shard.GetAdjBatch([]int64{int64(i)}); err != nil {
			return err
		}
		var backend kv.Store = shard
		if d.it.tr != nil {
			backend = &storeProbe{inner: shard, stats: &d.it.tr.server}
		}
		srv, err := kv.Serve("127.0.0.1:0", backend)
		if err != nil {
			return err
		}
		d.servers = append(d.servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	for i := 0; i < netWorkers; i++ {
		c, err := kv.Dial(addrs, g.NumVertices())
		if err != nil {
			return err
		}
		d.clients = append(d.clients, c)
	}
	return nil
}

func (d *netDeployment) startMaster(pl planned) error {
	it, g := d.it, d.it.in.g
	if err := os.Remove(d.journal); err != nil && !os.IsNotExist(err) {
		return err
	}
	cfg := sched.MasterConfig{
		Plan:          pl.best.Plan,
		NumVertices:   g.NumVertices(),
		Ord:           pl.ord,
		Degree:        g.Degree,
		LabelOf:       g.Label,
		Tau:           netTau,
		TaskRetries:   netRetries,
		LeaseDuration: netLease,
		JournalPath:   d.journal,
		JournalNoSync: true,
		Obs:           it.reg,
	}
	if it.tr != nil {
		cfg.WrapConn = it.tr.conn.wrap
	}
	m, err := sched.StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		return err
	}
	d.master = m
	return nil
}

// join starts the workers concurrently and returns once every one has
// joined. Each starts leasing as soon as it has joined.
func (d *netDeployment) join() error {
	d.workers = make([]*sched.Worker, netWorkers)
	errs := make([]error, netWorkers)
	var wg sync.WaitGroup
	for i := range d.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.workers[i], errs[i] = sched.StartWorker(d.master.Addr(), sched.WorkerConfig{
				Threads:    1,
				CacheBytes: netCacheBytes,
				Store:      d.it.probe(d.clients[i]),
				Name:       fmt.Sprintf("w%d", i),
				Retry:      rejoinPolicy(netRejoinFor),
				Obs:        d.it.reg,
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rejoinPolicy is benu-worker's retry policy for a -rejoin-for window.
func rejoinPolicy(window time.Duration) *resilience.Policy {
	return &resilience.Policy{
		MaxAttempts: 4 + int(window/time.Second),
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  time.Second,
		Multiplier:  2,
		Jitter:      0.2,
	}
}

func (d *netDeployment) run() (outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	res, err := d.master.Wait(ctx)
	if err != nil {
		return outcome{}, err
	}
	it := d.it
	it.layer("cluster.tasks", float64(res.Tasks))
	it.layer("cluster.split_tasks", float64(res.SplitTasks))
	it.layer("sched.steals", float64(res.Steals))
	it.layer("sched.leases_expired", float64(res.LeasesExpired))
	it.layer("sched.duplicates", float64(res.DuplicateReports))
	it.layer("sched.retried", float64(res.TasksRetried))
	return outcome{
		matches:  res.Matches,
		attempts: int64(res.Tasks + res.TasksRetried),
		failed:   int64(res.TasksRetried + res.TasksFailed),
	}, nil
}

func (d *netDeployment) close() {
	if d.master != nil {
		d.master.Drain(5 * time.Second)
	}
	for _, w := range d.workers {
		if w != nil {
			w.Close()
		}
	}
	if d.master != nil {
		d.master.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
	for _, c := range d.clients {
		c.Close()
	}
	if fi, err := os.Stat(d.journal); err == nil {
		d.it.layer("journal.bytes", float64(fi.Size()))
		os.Remove(d.journal)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
