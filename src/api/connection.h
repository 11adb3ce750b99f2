// api::Connection — the one client surface of the engine.
//
// A Connection is a session handle over a Database plus (optionally) a
// shared sched::Scheduler. It owns per-session settings (strategy override,
// scheduler priority, stream bounds), captures a read-your-writes snapshot
// per statement, and exposes every way of running work through one unified
// result shape:
//
//   Query(sql)    — synchronous; returns a materialized api::QueryResult
//   Submit(sql)   — asynchronous; returns an api::PendingResult handle
//   Stream(sql)   — streaming; returns an api::RowCursor with backpressure
//   Prepare(sql)  — parse/bind once, execute many times with `?` params
//   Query/Submit/Stream(plan::PlanTemplate) — the typed-plan path the
//                   paper-figure benches use (no SQL, no projection)
//
// There are two kinds of session, and both execute every query through the
// scheduler's per-query code (so every query is counted in the scheduler
// metrics, listed in system.queries and logged once to system.query_log):
//
//   * A session with a scheduler runs everything on the shared pool,
//     interleaving with other sessions' queries at morsel granularity.
//   * A session without one runs each statement on the calling thread as
//     the query's only worker (sched::Scheduler::RunOnCaller). Submit runs
//     the statement at once and returns a finished handle; Stream is
//     InvalidArgument, because a bounded cursor needs a producer thread
//     apart from its consumer. Parallel, asynchronous and streaming callers
//     construct a sched::Scheduler of the width they want.
//
// The advisor's parallelism input is the executing width: the pool's, or 1.
//
// Thread safety: a Connection may be shared across threads for Query /
// Submit / Stream of *independent* statements (the underlying catalog and
// scheduler are thread-safe; the lazily calibrated cost-model cache takes
// its own lock). Session mutation — set_settings, ShareCostCache,
// set_statement_cache — belongs to setup, before the Connection is shared.
// PreparedStatement objects are single-threaded.

#ifndef CSTORE_API_CONNECTION_H_
#define CSTORE_API_CONNECTION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/result.h"
#include "api/statement.h"
#include "db/database.h"
#include "model/advisor.h"
#include "model/cost_params.h"
#include "sched/scheduler.h"
#include "sql/ast.h"
#include "util/status.h"

namespace cstore {
namespace api {

class StatementCache;

class Connection {
 public:
  struct Settings {
    // Session-wide strategy override; the advisor picks when unset.
    // Per-call overrides win over this.
    std::optional<plan::Strategy> strategy;
    // Scheduler priority for submitted queries (>= 1: that many consecutive
    // morsel claims per rotation).
    int priority = 1;
    // RowCursor bound: chunks buffered between producer and consumer before
    // backpressure stalls the producing worker.
    size_t stream_queue_chunks = 4;
    // Optional shared gauge of bytes currently buffered in this session's
    // streaming queues (added on push, subtracted on pop/cancel). The SQL
    // server points every session at one gauge so admission control can
    // shed on total buffered output; null = no accounting. Not owned; must
    // outlive the session's cursors.
    std::atomic<int64_t>* stream_byte_account = nullptr;
  };

  /// `scheduler == nullptr` makes a session that runs every statement on
  /// the calling thread; otherwise every query runs on the shared pool.
  /// Neither `db` nor `scheduler` is owned; both must outlive the
  /// Connection.
  explicit Connection(db::Database* db, sched::Scheduler* scheduler = nullptr);
  Connection(db::Database* db, sched::Scheduler* scheduler,
             Settings settings);

  db::Database* database() const { return db_; }
  sched::Scheduler* scheduler() const { return scheduler_; }
  const Settings& settings() const { return settings_; }
  void set_settings(Settings settings) { settings_ = std::move(settings); }

  // --- SQL --------------------------------------------------------------

  /// Executes one statement (SELECT / INSERT / DELETE / UPDATE) against a
  /// write snapshot captured at bind time. Statements containing `?` must
  /// go through Prepare.
  Result<QueryResult> Query(const std::string& sql,
                            std::optional<plan::Strategy> strategy = {});

  /// Parses, binds, and strategy-advises now (errors are carried in the
  /// handle); execution proceeds concurrently on the session's scheduler,
  /// or runs to completion before returning on a session without one.
  /// Write statements execute at submit time, so later statements observe
  /// them.
  PendingResult Submit(const std::string& sql,
                       std::optional<plan::Strategy> strategy = {});

  /// Streaming execution of a SELECT: chunks flow to the returned cursor
  /// through a bounded queue (see Settings::stream_queue_chunks). Needs a
  /// session with a scheduler (InvalidArgument otherwise).
  Result<RowCursor> Stream(const std::string& sql,
                           std::optional<plan::Strategy> strategy = {});

  /// Parses and binds once; the returned statement executes many times
  /// with `?` parameter values, re-capturing only the snapshot per run.
  /// The statement borrows this Connection and must not outlive it.
  Result<PreparedStatement> Prepare(const std::string& sql);

  /// Attaches a shared statement cache: subsequent Prepare(sql) calls
  /// resolve through it, so concurrent sessions presenting the same SQL
  /// share one parse+bind. The cache must belong to the same Database and
  /// outlive this Connection. Session setup only (like set_settings); pass
  /// nullptr to detach.
  void set_statement_cache(StatementCache* cache) { stmt_cache_ = cache; }
  StatementCache* statement_cache() const { return stmt_cache_; }

  /// The advisor's per-strategy cost report for `sql`, without executing.
  /// Statements with `?` parameters take their values via `params` (one per
  /// placeholder, in order) — the report then reflects the parameterized
  /// predicates' selectivities, exactly as a prepared execution would see
  /// them.
  Result<std::string> Explain(const std::string& sql,
                              const std::vector<Value>& params = {});

  /// EXPLAIN ANALYZE: executes the SELECT and returns a QueryResult whose
  /// explain_text holds the plan annotated with per-operator actual
  /// time/calls/rows next to the cost model's predictions (result rows are
  /// not materialized; stats are the real run's). Equivalent to
  /// Query("EXPLAIN ANALYZE " + sql).
  Result<QueryResult> ExplainAnalyze(const std::string& sql,
                                     const std::vector<Value>& params = {});

  /// Prometheus-style metrics dump: the process-wide MetricsRegistry
  /// (scheduler counters, queue depth, latency histograms) plus this
  /// database's gauges — buffer-pool hit ratio and lock contention,
  /// retired fds, chunk/page-pool pressure, statement-cache hit rate.
  std::string Metrics() const;

  // --- Typed plans ------------------------------------------------------

  /// Runs a typed plan template, on the pool or on the caller like any
  /// statement. `materialize = false` skips output buffering entirely —
  /// Wait() returns stats and an empty tuple chunk (what benches measuring
  /// QPS/latency want).
  Result<QueryResult> Query(const plan::PlanTemplate& tmpl);
  PendingResult Submit(const plan::PlanTemplate& tmpl,
                       bool materialize = true);
  Result<RowCursor> Stream(const plan::PlanTemplate& tmpl);

  /// Shares the lazily-calibrated cost-model parameter cache with `other`
  /// (calibration takes ~tens of ms once; sibling sessions should reuse
  /// it). Like set_settings, this mutates session state: call it during
  /// session setup, before the Connection is shared across threads.
  void ShareCostCache(const Connection& other) {
    cost_cache_ = other.cost_cache_;
  }

 private:
  friend class PreparedStatement;

  struct CostCache {
    std::mutex mu;
    std::optional<model::CostParams> params;
  };

  /// Statement pieces every SQL path shares after binding.
  struct Runnable {
    plan::PlanTemplate tmpl;
    std::vector<uint32_t> output_slots;
    std::vector<std::string> output_names;
    plan::Strategy strategy = plan::Strategy::kLmParallel;
    // Query identity in system.queries / system.query_log: the SQL text.
    // Empty (typed-plan paths) falls back to "plan:<kind>".
    std::string label;
  };

  /// The executing width — the pool's, or 1 on the caller: the advisor's
  /// parallelism input.
  int Workers() const;
  const model::CostParams& Params();
  model::SelectionModelInput ModelInputFor(const plan::SelectionQuery& scan);
  double GroupEstimateFor(const plan::AggQuery& agg);
  /// `agg` may be null for plain selections.
  Result<plan::Strategy> ChooseStrategy(const plan::SelectionQuery& scan,
                                        const plan::AggQuery* agg,
                                        std::optional<plan::Strategy> per_call);
  /// Builds the plan template for a resolved statement.
  Result<Runnable> MakeRunnable(internal::BoundSelect* bound,
                                const internal::ResolvedSelect& resolved,
                                std::optional<plan::Strategy> per_call);

  /// Executes a write statement immediately (all kinds but kSelect).
  Result<QueryResult> ExecuteWrite(const sql::ParsedStatement& stmt,
                                   const std::vector<Value>& params);

  /// EXPLAIN / EXPLAIN ANALYZE back end (stmt.explain selects which): the
  /// advisor's prediction report, plus — for ANALYZE — the executed plan's
  /// per-operator actuals.
  Result<QueryResult> ExplainStatement(const sql::ParsedStatement& stmt,
                                       std::optional<plan::Strategy> strategy,
                                       const std::vector<Value>& params);

  /// Shared-resource pressure section appended to Explain output: shard
  /// lock contention, retired fds, chunk/page-pool recycling.
  std::string PressureReport() const;

  /// Runs on the session's scheduler, or on the caller without one.
  PendingResult SubmitRunnable(Runnable run, bool materialize = true);
  Result<RowCursor> StreamRunnable(Runnable run);

  // PreparedStatement back ends.
  Result<QueryResult> ExecutePrepared(PreparedStatement* stmt,
                                      const std::vector<Value>& params);
  PendingResult SubmitPrepared(PreparedStatement* stmt,
                               const std::vector<Value>& params);
  Result<RowCursor> StreamPrepared(PreparedStatement* stmt,
                                   const std::vector<Value>& params);
  /// Refreshes the prepared statement's cached plan template for one
  /// execution: new snapshot, parameter predicates, strategy — and readers,
  /// only if a compaction swapped the generation since the last run.
  Status PrepareRun(PreparedStatement* stmt,
                    const std::vector<Value>& params);

  db::Database* db_;
  sched::Scheduler* scheduler_;  // null = run on the calling thread
  Settings settings_;
  std::shared_ptr<CostCache> cost_cache_;
  StatementCache* stmt_cache_ = nullptr;  // not owned; may be null
};

}  // namespace api
}  // namespace cstore

#endif  // CSTORE_API_CONNECTION_H_
