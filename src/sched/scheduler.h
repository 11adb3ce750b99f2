// Query scheduler: the engine's one executor. Every query — on a shared
// pool or on a caller's thread — runs through the per-query code below:
// Submit's setup, the claim, RunTask, the template's BuildPipeline and
// Finalize.
//
//   * Submit(PlanTemplate) enqueues a query on the pool and immediately
//     returns a QueryTicket — a waitable handle resolving to the query's
//     ExecResult (Status + RunStats). Many queries can be in flight at once.
//   * RunOnCaller(PlanTemplate) drives one query to completion on the
//     calling thread, as the query's only worker, and returns a finished
//     ticket. Sessions without a pool run every statement this way, so the
//     calling thread stays the executor (no hand-off to a worker thread).
//   * Dispatch is fair at *morsel* granularity: workers claim the next
//     morsel from the active queries in weighted round-robin order (a query
//     with priority p takes p consecutive morsels per rotation, default 1),
//     so K queries interleave instead of queueing behind each other. Empty
//     scans are single-task queries occupying one worker.
//   * Two-phase queries carry a lightweight intra-query phase dependency.
//     Joins run their template's BuildPipeline first: each stage's tasks
//     are dispatched like morsels (claimed by any worker, concurrently),
//     a barrier separates consecutive stages, and after the last stage the
//     finishing worker merges/publishes the product; only then do the
//     query's probe morsels (or its single task, for an empty outer side)
//     become runnable. Sorts invert the shape: every morsel forms a sorted
//     run, and finalization k-way merges the runs. While one query's phase
//     tasks are exhausted-but-incomplete the rotation simply skips it —
//     other queries' morsels keep the pool busy, so barriers cost the query
//     latency, never the pool throughput.
//   * Results merge once, when the query's last task completes: per-(query,
//     worker) partials — checksum, tuple counts, ExecStats, aggregation
//     accumulators, buffered output chunks — are combined by Finalize. No
//     lock is taken on the output path during execution; the sink is
//     invoked sequentially at finalization.
//   * Finalize is the one place a query is accounted: the scheduler
//     metrics, the live registry behind system.queries and the always-on
//     query log behind system.query_log (workers = the executing width: the
//     pool's, or 1 on the caller).
//
// Correctness contract (tests/sched_test.cc): for every query in a
// concurrent mixed batch, output_tuples and the order-independent checksum
// are bit-identical to that query's single-worker run, and per-query
// ExecStats are not cross-contaminated. RunStats::io is attributed per
// (query, worker) through the buffer pool's thread-local sink and merged at
// finalization, so a query's reported I/O is its own even with concurrent
// neighbors hammering the shared pool.
//
// wall_micros measures submit → finalize, i.e. queueing latency is part of
// a query's reported latency — which is what a throughput bench wants.

#ifndef CSTORE_SCHED_SCHEDULER_H_
#define CSTORE_SCHED_SCHEDULER_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "plan/parallel.h"
#include "sched/worker_pool.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace cstore {
namespace sched {

/// Final outcome of one submitted query.
struct ExecResult {
  Status status;
  plan::RunStats stats;
};

/// How workers pick the next query to take a morsel from. All policies
/// claim at morsel granularity and produce bit-identical per-query results
/// (they reorder work, never drop or duplicate it); they differ only in
/// whose morsel runs next:
///
///   kWeightedRoundRobin — the default: fair interleaving, a
///       query with priority p takes p consecutive morsels per rotation.
///   kFifoPriority — strict priority, FIFO within a priority level: the
///       oldest submitted query of the highest claimable priority runs to
///       the next morsel boundary. Minimizes high-priority latency;
///       starvation of low priorities is possible under saturation (the
///       server's admission control bounds how long that can last).
///   kShortestRemaining — shortest-remaining-work-first: the query with the
///       fewest unstarted+unfinished morsels (live registry progress:
///       morsels_total − morsels_done) goes first, ties to the oldest.
///       Approximates SJF at morsel granularity, cutting mean latency when
///       short interactive queries share the pool with long scans.
enum class DispatchPolicy {
  kWeightedRoundRobin,
  kFifoPriority,
  kShortestRemaining,
};

const char* DispatchPolicyName(DispatchPolicy policy);
/// Parses "rr" | "fifo" | "srw" (the --dispatch flag spellings).
Result<DispatchPolicy> ParseDispatchPolicy(const std::string& name);

namespace internal {
struct QueryState;
}  // namespace internal

/// Waitable per-query handle returned by Scheduler::Submit. Copyable and
/// cheap (shared state); outlives the Scheduler safely for queries that
/// already finished (the Scheduler destructor drains all submitted work).
class QueryTicket {
 public:
  QueryTicket() = default;

  /// Blocks until the query finalizes and returns its result. Idempotent.
  /// Returns by value so `scheduler.Submit(...).Wait()` — where the
  /// temporary ticket (possibly the query state's last owner) dies at the
  /// end of the expression — hands back a self-contained result instead of
  /// a dangling reference.
  ExecResult Wait() const;

  bool Done() const;
  bool valid() const { return state_ != nullptr; }

 private:
  friend class Scheduler;
  explicit QueryTicket(std::shared_ptr<internal::QueryState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::QueryState> state_;
};

class Scheduler {
 public:
  struct Options {
    // Worker threads in the pool. 0 = hardware concurrency.
    int num_workers = 0;
    // Initial dispatch policy; switchable at runtime (set_dispatch_policy).
    DispatchPolicy dispatch = DispatchPolicy::kWeightedRoundRobin;
  };

  /// Receives every output chunk of one query, invoked sequentially (no
  /// locking needed inside) by the finalizing worker after the query's last
  /// morsel completes. Aggregations deliver exactly one chunk (the merged
  /// groups); selections deliver each worker's buffered chunks in worker
  /// order. Not called at all if the query failed.
  using Sink = std::function<void(const exec::TupleChunk&)>;

  /// Streaming variant: invoked *during* execution, from whichever worker
  /// produced the chunk — concurrently for parallel scans, so it must be
  /// thread-safe. Output is never buffered in the scheduler (this is what
  /// bounds a streaming consumer's memory). Returning false cancels the
  /// query: remaining morsels are dropped and the ticket resolves to a
  /// Cancelled status. Aggregations still deliver their single merged chunk
  /// at finalization (through this sink). If the query fails mid-run, chunks
  /// already streamed stay delivered; the error surfaces on the ticket.
  using StreamSink = std::function<bool(const exec::TupleChunk&)>;

  /// Full submission request: exactly one of `sink` / `stream_sink` may be
  /// set. `on_complete` (optional) runs after the query's result is
  /// published (ticket waiters are already releasable) — streaming callers
  /// use it to close their queue.
  struct SubmitOptions {
    Sink sink;
    StreamSink stream_sink;
    std::function<void()> on_complete;
    int priority = 1;
    // Human-readable identity of the query in system.queries /
    // system.query_log: SQL text for SQL paths, "plan:<kind>" otherwise.
    std::string label;
  };

  Scheduler();  // Options() — hardware-sized pool
  explicit Scheduler(Options options);

  /// Drains every submitted query (tickets all complete), then stops and
  /// joins the workers.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues a query for execution on the shared pool. `tmpl.config`'s
  /// morsel size is honoured (auto-sized from the table and pool width when
  /// left at the default); the pool decides parallelism.
  /// `options.priority >= 1` gives the query that many consecutive morsel
  /// claims per round-robin rotation.
  QueryTicket Submit(plan::PlanTemplate tmpl, storage::BufferPool* pool,
                     SubmitOptions options);

  /// Runs the query to completion on the calling thread through the same
  /// per-query code as Submit, with the caller as its one worker (morsels
  /// sized for one worker, claimed in order). Returns a finished ticket.
  /// `options.stream_sink` is invoked on the caller too, so it cannot wait
  /// for a consumer on the same thread.
  static QueryTicket RunOnCaller(plan::PlanTemplate tmpl,
                                 storage::BufferPool* pool,
                                 SubmitOptions options);

  /// Enqueues generic background work (e.g. a TupleMover compaction pass)
  /// as a single indivisible task on the same pool: it interleaves with
  /// query morsels under the usual weighted round-robin, so `priority = 1`
  /// makes it the lowest-priority participant. The ticket resolves to the
  /// job's returned Status (RunStats carries wall time and the job's own
  /// attributed I/O).
  QueryTicket SubmitJob(std::function<Status()> job, int priority = 1);

  int num_workers() const { return num_workers_; }

  /// Switches the dispatch policy at runtime (the server's latency knob).
  /// Takes effect on the next claim; morsels already running finish where
  /// they are. Safe to call concurrently with submissions.
  void set_dispatch_policy(DispatchPolicy policy);
  DispatchPolicy dispatch_policy() const;

 private:
  /// A one-worker scheduler without threads: RunOnCaller's executor.
  struct CallerOnly {};
  explicit Scheduler(CallerOnly);

  struct Task {
    std::shared_ptr<internal::QueryState> query;
    position::Range morsel;
    // Build-phase task of a two-phase query: one (stage, task) unit of its
    // BuildPipeline. The last stage's completion (plus the finish/merge
    // step) unblocks the query's morsel claims.
    bool build = false;
    int build_stage = 0;
    int build_task = 0;
  };

  /// What a query had to offer when a worker asked it for work.
  enum class Claim {
    kClaimed,    // *out holds a task
    kWaiting,    // nothing *now*, but more once its build completes — skip
    kExhausted,  // never anything again — drop from the rotation
  };

  void WorkerLoop(int worker_id);
  /// Claims one task, runs it off-lock as `worker_id` and completes it
  /// (stage barriers, build publish, finalize). False when nothing was
  /// claimable. `lock` holds mu_ on entry and on return.
  bool RunNextLocked(int worker_id, std::unique_lock<std::mutex>& lock);
  /// Claims the next task under the current dispatch policy. Removes
  /// exhausted queries from the rotation; queries waiting on their build
  /// barrier are skipped but stay. Caller holds mu_.
  bool TryClaimLocked(Task* out);
  /// The round-robin claim loop (the kWeightedRoundRobin body of
  /// TryClaimLocked). Caller holds mu_.
  bool TryClaimRoundRobinLocked(Task* out);
  Claim ClaimFromLocked(internal::QueryState* q, Task* out);
  /// Non-mutating twin of ClaimFromLocked: what would that call return?
  /// The policy scan uses it to rank candidates without burning claim
  /// state. Caller holds mu_.
  Claim PeekClaimLocked(const internal::QueryState* q) const;
  /// Executes one morsel into the worker's partial. Lock-free.
  void RunTask(int worker_id, const Task& task);
  /// Runs the build pipeline's Finish (merge/publish) step off-lock, after
  /// the last stage's barrier. Called by the worker that completed the
  /// stage's final task.
  void FinishBuild(int worker_id,
                   const std::shared_ptr<internal::QueryState>& q);
  void FailQuery(internal::QueryState* q, const Status& status);
  /// Merges partials, runs the sink, fills the ticket. Called exactly once
  /// per query, off the scheduler lock.
  void Finalize(const std::shared_ptr<internal::QueryState>& q);

  const int num_workers_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  DispatchPolicy dispatch_;  // guarded by mu_
  // Submit-ordered rotation of queries that still have unclaimed morsels.
  std::vector<std::shared_ptr<internal::QueryState>> active_;
  size_t rr_ = 0;      // rotation cursor into active_
  int credits_ = 0;    // remaining consecutive claims for active_[rr_]
  bool shutdown_ = false;

  // Last member: workers start in the constructor's final step and touch
  // everything above, so the pool must be destroyed (joined) first. Null
  // for RunOnCaller's threadless scheduler.
  std::unique_ptr<WorkerPool> pool_;
};

/// Registers the scheduler's metric families (queue depth, latency
/// histograms, ...) without running a query. system.metrics calls this so
/// the gauges exist — at zero — even in a process that has run none yet.
void EnsureSchedMetricsRegistered();

}  // namespace sched
}  // namespace cstore

#endif  // CSTORE_SCHED_SCHEDULER_H_
