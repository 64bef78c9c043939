package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"benu/internal/cluster"
	"benu/internal/exec"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
	"benu/internal/plan"
	"benu/internal/resilience"
)

// WorkerConfig parameterizes one worker machine.
type WorkerConfig struct {
	// Threads is the number of working threads (≥ 1). Default 2.
	Threads int
	// CacheBytes is the machine's DB cache capacity (0 disables).
	CacheBytes int64
	// Store overrides the adjacency store. nil dials the storage nodes
	// the master names in JoinReply.StoreAddrs.
	Store kv.Store
	// Name optionally labels the worker in logs and errors.
	Name string
	// StoreParts / StoreNumParts advertise which adjacency-store hash
	// partitions this machine serves locally (see JoinArgs); the master
	// then prefers leasing it tasks starting in those partitions.
	StoreParts    []int
	StoreNumParts int
	// Retry makes the worker survive control-plane blips: every
	// master RPC is retried under this policy (capped exponential
	// backoff, optional per-attempt Timeout), and a transport error or
	// a fenced/stale reply tears the session down and re-Joins —
	// rejoining a restarted master under its new epoch, with only
	// still-pending tasks re-leased. nil disables all of it: the first
	// transport error stops the worker (the pre-journal behavior, which
	// tests that orchestrate failures directly still rely on).
	Retry *resilience.Policy
	// Obs selects the worker-local metrics registry (exec.*, source.*,
	// cache.* names, plus the cluster.task spans). nil means
	// obs.Default().
	Obs *obs.Registry
}

// ErrFenced reports that the master declared this worker dead (its
// lease expired) and its remaining work was re-queued elsewhere.
var ErrFenced = errors.New("sched: worker fenced by master (lease expired)")

// errStaleEpoch is the retryable error a stale/fenced reply turns into
// inside the call layer: the session is gone, the next attempt rejoins.
var errStaleEpoch = errors.New("sched: session fenced (master restarted or lease expired)")

// session is one join with one master incarnation: the connection, the
// identity it assigned, and the epoch every call echoes. A transport
// error or a stale reply kills the whole session; the replacement gets
// a fresh generation number so work leased under the old one can be
// told apart.
type session struct {
	client *rpc.Client
	id     int
	epoch  uint64
	gen    int
}

// leasedTask is a task plus the session generation it was leased under.
type leasedTask struct {
	WireTask
	gen int
}

// Worker is one joined worker machine: a pull loop leasing task batches
// from the master, Threads executor threads draining them, and a
// heartbeat loop renewing the lease. Construct with StartWorker; the
// worker runs in the background until the master reports the run done,
// the connection drops, or Close/Shutdown/Kill.
type Worker struct {
	masterAddr string
	joinArgs   JoinArgs
	planBytes  []byte

	retrier     *resilience.Retrier // nil: no retries, no rejoin
	retryCtx    context.Context
	retryCancel context.CancelFunc
	rejoinsC    *obs.Counter
	dropStaleC  *obs.Counter

	m          *cluster.Machine
	taskCh     chan leasedTask // dispatchLoop → the machine's threads
	cur        []leasedTask    // per thread: the task nextTask last handed out
	dialed     *kv.Client      // non-nil when we own the store connection
	heartbeat  time.Duration
	leaseBatch int

	quit      chan struct{}
	quitOnce  sync.Once
	drain     chan struct{}
	drainOnce sync.Once
	done      chan struct{}

	// rejoinMu serializes re-Join attempts so concurrent loops hitting
	// the same dead session produce one replacement, not three.
	rejoinMu sync.Mutex

	mu      sync.Mutex
	sess    *session // nil between a teardown and the next rejoin
	gen     int
	id      int  // last assigned WorkerID, for ID()
	killed  bool // set by Kill: suppress graceful teardown reporting
	err     error
	revoked map[int64]struct{}
	running map[int64]struct{}
	stats   exec.Stats
	tasks   int
}

// StartWorker dials the master at addr, joins, and starts executing.
func StartWorker(addr string, cfg WorkerConfig) (*Worker, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 2
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default()
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sched: dial master %s: %w", addr, err)
	}
	client := rpc.NewClient(conn)
	var join JoinReply
	args := JoinArgs{Name: cfg.Name, StoreParts: cfg.StoreParts, StoreNumParts: cfg.StoreNumParts}
	if err := client.Call("Sched.Join", &args, &join); err != nil {
		client.Close()
		return nil, fmt.Errorf("sched: join: %w", err)
	}
	pl, err := plan.UnmarshalPlan(join.Plan)
	if err != nil {
		client.Close()
		return nil, err
	}
	prog, err := exec.Compile(pl)
	if err != nil {
		client.Close()
		return nil, err
	}
	ord, err := graph.OrderFromRanks(join.Ranks)
	if err != nil {
		client.Close()
		return nil, err
	}
	if ord.Len() != join.NumVertices {
		client.Close()
		return nil, fmt.Errorf("sched: join sent %d ranks for %d vertices", ord.Len(), join.NumVertices)
	}

	store := cfg.Store
	var dialed *kv.Client
	if store == nil {
		if len(join.StoreAddrs) == 0 {
			client.Close()
			return nil, fmt.Errorf("sched: no WorkerConfig.Store and the master names no storage nodes")
		}
		dialed, err = kv.Dial(join.StoreAddrs, join.NumVertices)
		if err != nil {
			client.Close()
			return nil, err
		}
		store = dialed
	}
	w := &Worker{
		masterAddr: addr,
		joinArgs:   args,
		planBytes:  join.Plan,
		rejoinsC:   reg.Counter("sched.worker.rejoins"),
		dropStaleC: reg.Counter("sched.worker.dropped_stale"),
		dialed:     dialed,
		heartbeat:  join.HeartbeatEvery,
		leaseBatch: 2 * cfg.Threads,
		taskCh:     make(chan leasedTask),
		cur:        make([]leasedTask, cfg.Threads),
		quit:       make(chan struct{}),
		drain:      make(chan struct{}),
		done:       make(chan struct{}),
		gen:        1,
		id:         join.WorkerID,
		revoked:    map[int64]struct{}{},
		running:    map[int64]struct{}{},
	}
	w.sess = &session{client: client, id: join.WorkerID, epoch: join.Epoch, gen: 1}
	w.retryCtx, w.retryCancel = context.WithCancel(context.Background())
	if cfg.Retry != nil {
		w.retrier = resilience.NewRetrier(*cfg.Retry, reg)
	}
	if len(join.Degrees) != 0 && len(join.Degrees) != join.NumVertices {
		client.Close()
		return nil, fmt.Errorf("sched: join sent %d degrees for %d vertices", len(join.Degrees), join.NumVertices)
	}
	if pl.Pattern.Labeled() && len(join.Labels) != join.NumVertices {
		client.Close()
		return nil, fmt.Errorf("sched: labeled plan but join sent %d labels for %d vertices", len(join.Labels), join.NumVertices)
	}
	mcfg := cluster.MachineConfig{
		Prog:                 prog,
		Store:                store,
		Ord:                  ord,
		Threads:              cfg.Threads,
		CacheBytes:           cfg.CacheBytes,
		Source:               exec.SourceOptions{Compact: join.CompactAdjacency, Obs: reg},
		Prefetch:             join.Prefetch,
		TriangleCacheEntries: join.TriangleCacheEntries,
		// Emissions always travel inside the report, so a task's
		// matches are delivered iff its completion commits.
		BufferMatches: join.WantMatches,
		BufferCodes:   join.WantCodes,
	}
	if len(join.Degrees) > 0 {
		degrees := join.Degrees
		mcfg.DegreeOf = func(v int64) int { return int(degrees[v]) }
	}
	if pl.Pattern.Labeled() {
		labels := join.Labels
		mcfg.LabelOf = func(v int64) int64 { return labels[v] }
	}
	w.m = cluster.NewMachine(mcfg)
	go w.run()
	return w, nil
}

// ID returns the worker's master-assigned identity (the latest one,
// when rejoining has re-identified it).
func (w *Worker) ID() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Wait blocks until the worker exits (run done, fenced, killed, or a
// transport error) and returns why. A clean exit returns nil.
func (w *Worker) Wait() error {
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Stats returns the executor counters this worker committed so far and
// the number of tasks it completed.
func (w *Worker) Stats() (exec.Stats, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats, w.tasks
}

// Close shuts the worker down gracefully: it stops leasing, finishes
// and reports in-flight tasks, and disconnects. The master re-queues
// anything it never reported.
func (w *Worker) Close() error {
	w.stop(nil)
	<-w.done
	return nil
}

// Shutdown drains the worker: it stops leasing new tasks but — unlike
// Close — lets every task already leased (queued or executing) finish
// and report before disconnecting, so a SIGTERM'd worker hands the
// master completed work, not an expired lease. Blocks until the worker
// has exited.
func (w *Worker) Shutdown() error {
	w.drainOnce.Do(func() { close(w.drain) })
	<-w.done
	return nil
}

// Kill crashes the worker: the master connection is severed immediately
// and nothing in flight is reported — the failure mode lease expiry
// exists for. Chaos tests call this mid-task.
func (w *Worker) Kill() {
	w.mu.Lock()
	w.killed = true
	s := w.sess
	w.mu.Unlock()
	if s != nil {
		s.client.Close() // severs the TCP conn; in-flight RPCs fail
	}
	w.retryCancel() // abort backoff sleeps and rejoin attempts
	w.stop(errors.New("sched: worker killed"))
}

// stop requests shutdown with the given cause (first cause wins).
func (w *Worker) stop(cause error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = cause
	}
	w.mu.Unlock()
	w.quitOnce.Do(func() { close(w.quit) })
}

func (w *Worker) stopped() bool {
	select {
	case <-w.quit:
		return true
	default:
		return false
	}
}

func (w *Worker) draining() bool {
	select {
	case <-w.drain:
		return true
	default:
		return false
	}
}

func (w *Worker) isKilled() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.killed
}

// session returns the current session, nil if it was torn down.
func (w *Worker) session() *session {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sess
}

func (w *Worker) curGen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen
}

// teardown retires s: the connection is closed and, if s is still the
// current session, the worker is left session-less until rejoin.
func (w *Worker) teardown(s *session) {
	w.mu.Lock()
	if w.sess == s {
		w.sess = nil
	}
	w.mu.Unlock()
	s.client.Close()
}

// rejoin establishes a replacement session: dial, Join (under whatever
// epoch the master now runs), bump the generation, and forget
// session-scoped state — revocations and the running set referred to
// leases that died with the old session. Returns a retryable error on
// connection failure (the master may still be restarting) and a
// permanent one when the worker is done for (killed, or the master now
// serves a different job).
func (w *Worker) rejoin() (*session, error) {
	w.rejoinMu.Lock()
	defer w.rejoinMu.Unlock()
	w.mu.Lock()
	if w.sess != nil { // another loop already rejoined
		s := w.sess
		w.mu.Unlock()
		return s, nil
	}
	killed := w.killed
	w.mu.Unlock()
	if killed {
		return nil, resilience.Permanent(errors.New("sched: worker killed"))
	}
	conn, err := net.Dial("tcp", w.masterAddr)
	if err != nil {
		return nil, fmt.Errorf("sched: redial master %s: %w", w.masterAddr, err)
	}
	client := rpc.NewClient(conn)
	var join JoinReply
	args := w.joinArgs
	//benulint:lock rejoinMu exists to single-flight this RPC: concurrent loops must wait, not race a second Join
	if err := client.Call("Sched.Join", &args, &join); err != nil {
		client.Close()
		return nil, fmt.Errorf("sched: rejoin: %w", err)
	}
	if !bytes.Equal(join.Plan, w.planBytes) {
		client.Close()
		return nil, resilience.Permanent(fmt.Errorf("sched: master at %s now serves a different job", w.masterAddr))
	}
	w.mu.Lock()
	w.gen++
	w.id = join.WorkerID
	w.sess = &session{client: client, id: join.WorkerID, epoch: join.Epoch, gen: w.gen}
	w.revoked = map[int64]struct{}{}
	w.running = map[int64]struct{}{}
	s := w.sess
	w.mu.Unlock()
	w.rejoinsC.Inc()
	return s, nil
}

// wireReply lets the call layer see epoch fencing uniformly across
// reply types.
type wireReply interface{ staleEpoch() bool }

func (r *LeaseReply) staleEpoch() bool     { return r.Stale }
func (r *ReportReply) staleEpoch() bool    { return r.Stale }
func (r *HeartbeatReply) staleEpoch() bool { return r.Stale }

// callOnce performs one RPC attempt bounded by ctx. On ctx expiry the
// call is abandoned but may still land on the master — which is exactly
// how a retried Report becomes a duplicate delivery; the master's
// by-task-ID dedup is what makes that safe.
func callOnce(ctx context.Context, c *rpc.Client, method string, args, reply any) error {
	call := c.Go(method, args, reply, make(chan *rpc.Call, 1))
	select {
	case <-ctx.Done():
		return ctx.Err()
	case done := <-call.Done:
		return done.Error
	}
}

// callSched performs one logical RPC against the master. mk builds the
// arguments for whichever session the attempt runs under (identity and
// epoch change across rejoins). Without a retry policy it is a plain
// call on the current session — any failure is the caller's problem,
// as before journaling existed. With one, transport errors and
// stale/fenced replies tear the session down, rejoin, and retry under
// the policy's budget; an rpc.ServerError is an application error from
// a live master and is never retried. Returns the reply and the
// session generation that produced it.
func callSched[R any](w *Worker, method string, mk func(id int, epoch uint64) any) (*R, int, error) {
	if w.retrier == nil {
		s := w.session()
		if s == nil {
			return nil, 0, errStaleEpoch
		}
		reply := new(R)
		if err := s.client.Call(method, mk(s.id, s.epoch), reply); err != nil {
			return nil, s.gen, err
		}
		if sr, ok := any(reply).(wireReply); ok && sr.staleEpoch() {
			return nil, s.gen, errStaleEpoch
		}
		return reply, s.gen, nil
	}
	var out *R
	var gen int
	err := w.retrier.Do(w.retryCtx, func(ctx context.Context) error {
		s := w.session()
		if s == nil {
			var rerr error
			if s, rerr = w.rejoin(); rerr != nil {
				return rerr
			}
		}
		reply := new(R)
		if err := callOnce(ctx, s.client, method, mk(s.id, s.epoch), reply); err != nil {
			if _, ok := err.(rpc.ServerError); ok {
				// The master answered: the connection is healthy and
				// the request itself was rejected. Retrying cannot help.
				return resilience.Permanent(err)
			}
			// Transport failure (or attempt timeout): assume the
			// session is gone and rejoin on the next attempt.
			w.teardown(s)
			return err
		}
		if sr, ok := any(reply).(wireReply); ok && sr.staleEpoch() {
			w.teardown(s)
			return errStaleEpoch
		}
		out, gen = reply, s.gen
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, gen, nil
}

// run is the worker body: a dispatcher leasing batches into taskCh,
// the machine's threads draining it, and a heartbeat ticker.
func (w *Worker) run() {
	defer close(w.done)

	var tg sync.WaitGroup
	tg.Add(1)
	go func() {
		defer tg.Done()
		w.m.Run(cluster.Feed{Next: w.nextTask, Finish: w.finishTask})
	}()

	var hg sync.WaitGroup
	hg.Add(1)
	go func() {
		defer hg.Done()
		w.heartbeatLoop()
	}()

	w.dispatchLoop(w.taskCh)
	close(w.taskCh)
	tg.Wait()
	w.quitOnce.Do(func() { close(w.quit) }) // release the heartbeater
	hg.Wait()
	if w.dialed != nil {
		w.dialed.Close()
	}
	if s := w.session(); s != nil {
		s.client.Close()
	}
	w.retryCancel()
}

// dispatchLoop pulls task batches from the master whenever the threads
// are hungry and feeds them through taskCh. It returns on shutdown,
// drain (graceful: queued tasks still execute and report), fencing
// without a retry policy, or the run completing.
func (w *Worker) dispatchLoop(taskCh chan<- leasedTask) {
	for {
		if w.stopped() || w.draining() {
			return
		}
		reply, gen, err := callSched[LeaseReply](w, "Sched.Lease", func(id int, epoch uint64) any {
			return &LeaseArgs{WorkerID: id, Max: w.leaseBatch, Epoch: epoch}
		})
		if err != nil {
			w.stop(fmt.Errorf("sched: lease: %w", err))
			return
		}
		if reply.Fenced {
			if w.retrier == nil {
				w.stop(ErrFenced)
				return
			}
			// Fenced but resilient: our leases are re-queued, so rejoin
			// as a fresh worker and keep pulling.
			if s := w.session(); s != nil && s.gen == gen {
				w.teardown(s)
			}
			continue
		}
		if reply.Done {
			return
		}
		for _, t := range reply.Tasks {
			select {
			case taskCh <- leasedTask{WireTask: t, gen: gen}:
			case <-w.quit:
				return
			}
		}
		if len(reply.Tasks) == 0 {
			backoff := reply.Backoff
			if backoff <= 0 {
				backoff = 10 * time.Millisecond
			}
			select {
			case <-time.After(backoff):
			case <-w.drain:
				return
			case <-w.quit:
				return
			}
		}
	}
}

// nextTask is the machine's cluster.Feed.Next: the next leased task,
// skipping revoked and stale leases.
func (w *Worker) nextTask(th int) (exec.Task, bool) {
	for wt := range w.taskCh {
		if w.taskRevoked(wt.ID) {
			continue
		}
		if wt.gen != w.curGen() {
			// Leased under a session that has since died: the master
			// (old or new incarnation) already considers this lease
			// lost and will re-queue the task, so running it here would
			// only manufacture a duplicate.
			w.dropStaleC.Inc()
			continue
		}
		w.setRunning(wt.ID, true)
		w.cur[th] = wt
		return wt.Task, true
	}
	return exec.Task{}, false
}

// finishTask is the machine's cluster.Feed.Finish: report the attempt,
// success or not, to the master, which commits it exactly once by
// task ID.
func (w *Worker) finishTask(th int, a *cluster.Attempt) bool {
	wt := w.cur[th]
	w.setRunning(wt.ID, false)
	if w.stopped() && w.isKilled() {
		return false // crashed: report nothing, let the lease expire
	}
	// Report under whatever session is current — a completed result
	// is never thrown away. If the session died mid-task the retry
	// path rejoins first, and the commit lands under the new
	// identity and epoch; the master commits by task ID, so it does
	// not matter who reports it (dedup drops it if someone else,
	// or a previous incarnation's journal, got there first).
	reply, _, cerr := callSched[ReportReply](w, "Sched.Report", func(id int, epoch uint64) any {
		report := &ReportArgs{
			WorkerID:   id,
			Epoch:      epoch,
			TaskID:     wt.ID,
			DurationNs: a.Duration.Nanoseconds(),
		}
		if a.Err != nil {
			report.Err = a.Err.Error()
		} else {
			report.Stats = a.Stats
			report.Matches = a.Matches
			report.Codes = a.Codes
		}
		return report
	})
	if cerr != nil {
		w.stop(fmt.Errorf("sched: report: %w", cerr))
		return false
	}
	if a.Err == nil && reply.Accepted {
		w.mu.Lock()
		w.stats.Add(a.Stats)
		w.tasks++
		w.mu.Unlock()
	}
	if reply.Done {
		w.quitOnce.Do(func() { close(w.quit) })
		return false
	}
	return true
}

func (w *Worker) taskRevoked(id int64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.revoked[id]
	return ok
}

func (w *Worker) setRunning(id int64, on bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if on {
		w.running[id] = struct{}{}
	} else {
		delete(w.running, id)
	}
}

// heartbeatLoop renews the lease and learns about revocations.
func (w *Worker) heartbeatLoop() {
	interval := w.heartbeat
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.quit:
			return
		case <-t.C:
		}
		w.mu.Lock()
		running := make([]int64, 0, len(w.running))
		for id := range w.running {
			running = append(running, id)
		}
		w.mu.Unlock()
		reply, gen, err := callSched[HeartbeatReply](w, "Sched.Heartbeat", func(id int, epoch uint64) any {
			return &HeartbeatArgs{WorkerID: id, Running: running, Epoch: epoch}
		})
		if err != nil {
			w.stop(fmt.Errorf("sched: heartbeat: %w", err))
			return
		}
		if reply.Fenced {
			if w.retrier == nil {
				w.stop(ErrFenced)
				return
			}
			if s := w.session(); s != nil && s.gen == gen {
				w.teardown(s)
			}
			continue
		}
		if len(reply.Revoked) > 0 {
			w.mu.Lock()
			for _, id := range reply.Revoked {
				w.revoked[id] = struct{}{}
			}
			w.mu.Unlock()
		}
	}
}
