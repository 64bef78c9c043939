// Package sched is the networked control plane: it promotes the
// simulated cluster (internal/cluster, goroutines in one process) to a
// real master/worker deployment over TCP, the compute-side twin of the
// internal/kv storage nodes.
//
// The paper's §V-B splits enumeration into local search tasks and
// shuffles them evenly to statically provisioned reducers; that model
// assumes a fixed, evenly loaded cluster. Here scheduling is
// pull-based, in the HUGE mold (see PAPERS.md): the master serves the
// task queue over stdlib net/rpc, workers join and leave dynamically
// and request task batches when idle, and an idle worker steals backlog
// from the straggler with the largest expected drain time (leased but
// not-yet-running tasks, weighted by that worker's observed task-span
// histogram). Stragglers shed load instead of defining the critical
// path.
//
// Failure story, built on the PR 4 resilience layer:
//
//   - Workers hold a lease on every task handed to them, renewed by
//     heartbeats. Missed heartbeats feed a per-worker
//     resilience.Breaker; when it opens the worker is declared dead
//     (fenced), its leases expire, and the tasks are re-queued — the
//     networked analogue of MapReduce task re-execution (§VI).
//   - Completion is committed by task ID exactly once. Execution is
//     at-least-once (a stolen or expired task may finish twice); the
//     first successful report wins, duplicates are counted
//     (sched.tasks.duplicate) and dropped. Emissions travel inside the
//     report, so a task's matches are delivered if and only if its
//     completion commits — no lost and no double-counted embeddings.
//   - A failed attempt (a worker-side executor or store error) is
//     re-queued until Config.TaskRetries is exhausted, then fails the
//     run loudly.
//   - The master itself can crash and restart: with a journal
//     (MasterConfig.JournalPath, package journal) every committed
//     completion is written synchronously before it is acknowledged,
//     and a re-launched master replays the file, skips done tasks, and
//     re-queues only the rest. Each incarnation runs at a fresh epoch;
//     every RPC carries the epoch it was issued under, and calls from
//     an older incarnation are rejected idempotently (Stale replies),
//     so a report raced across a restart can never double-commit or
//     corrupt the new incarnation's accounting.
//
// The wire protocol (this file) mirrors internal/kv's client/server
// shape: gob-encoded net/rpc over TCP, one service ("Sched") with four
// methods — Join, Lease, Report, Heartbeat. harness.go adds the
// cross-process test harness: StartMaster/StartWorker run the real wire
// protocol over loopback inside tests, and SpawnWorkerProcess re-execs
// the test binary so the differential and chaos matrices exercise a
// genuine multi-process deployment.
package sched

import (
	"time"

	"benu/internal/exec"
	"benu/internal/vcbc"
)

// JoinArgs is the RPC request for Sched.Join.
type JoinArgs struct {
	// Name optionally labels the worker in logs and errors.
	Name string
	// StoreParts lists the hash partitions of the adjacency store this
	// worker serves locally (it co-hosts those storage nodes, or holds
	// their CSR files on its disk). The master prefers leasing it tasks
	// whose start vertex lives in one of them. Nil means no locality
	// preference.
	StoreParts []int
	// StoreNumParts is the partition count StoreParts indexes refer to
	// (vertex v lives in partition v mod StoreNumParts).
	StoreNumParts int
}

// JoinReply hands a joining worker everything it needs to execute
// tasks: the compiled plan's wire form, the graph metadata, the total
// order, and the execution settings the master wants applied uniformly.
type JoinReply struct {
	// WorkerID identifies this worker in every subsequent call.
	WorkerID int
	// Epoch is the master incarnation that issued this identity. The
	// worker echoes it in every subsequent call; after a master restart
	// the echo no longer matches and the call is rejected as Stale,
	// telling the worker to re-Join.
	Epoch uint64
	// Plan is the plan.MarshalJSON broadcast payload.
	Plan []byte
	// NumVertices is |V(G)| of the data graph.
	NumVertices int
	// Ranks is the symmetry-breaking total order (graph.OrderFromRanks).
	Ranks []int64
	// StoreAddrs are the kv storage nodes to dial when the worker was
	// not constructed with its own store.
	StoreAddrs []string
	// Degrees carries d_G(v) per vertex when the plan is
	// degree-filtered (nil otherwise).
	Degrees []int32
	// Labels carries vertex labels when the pattern is labeled (nil
	// otherwise).
	Labels []int64
	// LeaseDuration is how long the master tolerates heartbeat silence
	// before the worker's leases expire.
	LeaseDuration time.Duration
	// HeartbeatEvery is the interval workers must heartbeat at (and the
	// poll interval when the queue is momentarily empty).
	HeartbeatEvery time.Duration
	// WantMatches / WantCodes tell the worker whether to ship emitted
	// embeddings / VCBC codes inside reports (only when the master has
	// a consumer; counts always travel in Stats).
	WantMatches bool
	WantCodes   bool
	// Execution settings, applied uniformly across workers so results
	// and costs are comparable.
	CompactAdjacency     bool
	Prefetch             bool
	TriangleCacheEntries int
}

// WireTask is one leased task.
type WireTask struct {
	// ID is the run-unique task identifier completion is committed by.
	ID int64
	// Task is the local search task itself.
	Task exec.Task
	// Stolen marks a task reassigned from a straggler's backlog.
	Stolen bool
}

// LeaseArgs is the RPC request for Sched.Lease: an idle worker pulling
// up to Max tasks.
type LeaseArgs struct {
	WorkerID int
	Max      int
	// Epoch is the master incarnation the worker joined (JoinReply.Epoch).
	Epoch uint64
}

// LeaseReply carries the leased tasks, or the reason there are none.
type LeaseReply struct {
	Tasks []WireTask
	// Done: the run is complete (or failed); the worker should drain
	// and exit.
	Done bool
	// Fenced: the worker's lease expired and it was declared dead; it
	// must stop (its tasks are already re-queued elsewhere).
	Fenced bool
	// Backoff is the suggested wait before polling again when no tasks
	// are available right now (the queue may refill via failures or
	// late-joining work).
	Backoff time.Duration
	// Stale: the caller's epoch predates this master incarnation (the
	// master restarted). The worker must discard its leases and re-Join.
	Stale bool
}

// ReportArgs is the RPC request for Sched.Report: one finished task
// attempt, successful or not.
type ReportArgs struct {
	WorkerID int
	TaskID   int64
	// Epoch is the master incarnation the task was leased under. A
	// report from a fenced epoch is rejected without touching state.
	Epoch uint64
	// Err is the attempt's failure, "" on success. A failed attempt
	// carries no results.
	Err string
	// DurationNs is the attempt's wall time, feeding the master's
	// per-worker straggler histograms.
	DurationNs int64
	// Stats is the attempt's executor counter delta.
	Stats exec.Stats
	// Matches / Codes are the attempt's buffered emissions (only when
	// the master asked via WantMatches/WantCodes).
	Matches [][]int64
	Codes   []*vcbc.Code
}

// ReportReply acknowledges a report.
type ReportReply struct {
	// Accepted: the completion committed. False means another attempt
	// already committed this task (the duplicate is dropped).
	Accepted bool
	// Done: the run is complete; the worker should exit.
	Done bool
	// Stale: the report's epoch predates this master incarnation; it
	// was rejected idempotently. The worker must re-Join.
	Stale bool
}

// HeartbeatArgs is the RPC request for Sched.Heartbeat: lease renewal
// plus the set of tasks currently executing on the worker's threads
// (the master steals only backlog it has not seen running).
type HeartbeatArgs struct {
	WorkerID int
	Running  []int64
	// Epoch is the master incarnation the worker joined.
	Epoch uint64
}

// HeartbeatReply returns revocations: tasks stolen from this worker's
// backlog or expired, which it must drop without executing.
type HeartbeatReply struct {
	Revoked []int64
	Done    bool
	Fenced  bool
	// Stale: the caller's epoch predates this master incarnation.
	Stale bool
}
