// The repository benchmark: two closed-loop workloads driven in process
// through the engine's public surfaces (api::Connection, db::Database),
// checked against the benchmark's own reference evaluation.
//
//   analytics   the paper's selection / aggregation / join shapes under all
//               four strategies, plus ORDER BY ... LIMIT
//   ingest      a writer session streaming INSERT / UPDATE / DELETE with
//               synchronous compactions, beside a pinned-strategy reader
//
// An untraced run reports the end-to-end metrics. A traced run (--trace 1)
// records spans around every call into a layer from this code, reads the
// engine's counters at the same boundaries, runs the per-layer probes and
// reports the per-layer metrics; its probes also drive server::Server over
// loopback HTTP.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <time.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/connection.h"
#include "common.h"
#include "db/database.h"
#include "plan/strategy.h"
#include "reference.h"
#include "sched/scheduler.h"
#include "tpch/generator.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space; the database lives under it
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Sizes and shape of one workload.
struct WorkloadSpec {
  std::string name;
  double scale_factor = 0.05;  // lineitem, orders and customer
  size_t pool_frames = 2048;  // 64 KB frames
  int clients = 2;            // client threads (client 0 is the writer)
  // Writes per second issued by client 0, paced.
  double write_rate = 4;
  // Whether client 0 reads between its writes (otherwise it only writes).
  bool writer_reads = true;
  // Compactions are synchronous, after every this many writes.
  uint64_t compact_every = 4;
};

/// One operation of a workload's closed loop.
struct Op {
  enum class Kind { kRead, kWrite };
  Kind kind = Kind::kRead;
  int shape = 0;           // index into the run's fixed shapes
  cstore::plan::Strategy strategy = cstore::plan::Strategy::kLmParallel;
  cstore::exec::JoinRightMode mode = cstore::exec::JoinRightMode::kMaterialized;
  WriteOp write;
};

/// The engine objects a run drives. Destroyed in reverse dependency order.
struct Engine {
  std::unique_ptr<cstore::db::Database> db;
  std::unique_ptr<cstore::sched::Scheduler> scheduler;
  std::vector<std::unique_ptr<cstore::api::Connection>> sessions;
  const cstore::codec::ColumnReader* customer_key = nullptr;
  const cstore::codec::ColumnReader* customer_nation = nullptr;
  double open_ms = 0;

  ~Engine();
};

/// Everything measured while a timed phase runs.
struct PhaseStats {
  double seconds = 0;
  uint64_t ops = 0;  // every operation, a paced writer's too
  uint64_t failed = 0;
  // Reads and writes as CPU time (the end-to-end timings; see CpuClocks)
  // and as wall time (reported beside them).
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<double> read_wall_ms;
  std::vector<double> write_wall_ms;
  std::vector<double> read_during_compaction_ms;  // wall
  std::vector<double> compact_ms;                 // wall
  std::vector<double> compact_bytes_per_row;  // traced runs only
  double insert_rows = 0;
  // CPU seconds of the INSERT statements plus the compactions.
  double insert_cpu_seconds = 0;
  // Closed-loop operations counted by qps, and the CPU seconds their
  // client loops took (the pool worker's share included).
  uint64_t loop_ops = 0;
  double loop_cpu_seconds = 0;
  // Traced runs: engine counters read at each in-process read.
  uint64_t inproc_reads = 0;
  uint64_t blocks_fetched = 0;
  uint64_t blocks_skipped = 0;
  uint64_t snapshots = 0;
  uint64_t tail_rows = 0;
  std::vector<std::string> sql_sent;  // first statements sent (cache probe)
  // Engine counters over the phase: buffer-pool deltas and the range of
  // query-log sequence numbers it recorded.
  cstore::storage::IoStats io;
  uint64_t log_from = 0;
  uint64_t log_to = 0;

  /// Closed-loop operations per CPU second (qps).
  double CpuQps() const {
    return loop_cpu_seconds > 0 ? loop_ops / loop_cpu_seconds : 0;
  }
};

/// A read as observed, kept for the check after the timed phase.
struct ReadRecord {
  int shape = 0;
  uint32_t lo = 0;  // writes acknowledged before it was sent
  uint32_t hi = 0;  // writes started by the time it returned
  BagDigest got;
  std::vector<std::vector<Value>> rows;  // ORDER BY ... LIMIT, in order
  std::string what;
};

/// One workload's set-up, closed loop and check.
class Workload {
 public:
  Workload(const Options& options, WorkloadSpec spec);
  ~Workload();

  /// Builds a fresh engine in an empty directory and warms it up
  /// (generate, load, open, calibrate, warm-up pass). Returns the CPU
  /// seconds the process took; `wall_seconds` receives the wall time.
  double Setup(double* wall_seconds);
  void Teardown();

  /// Runs the closed loop for `seconds` on every client thread.
  PhaseStats RunPhase(double seconds, bool traced);

  /// Replays the write log into the reference and checks every recorded
  /// read and write. Returns the number of mismatches.
  uint64_t Verify();

  const Options& options() const { return options_; }
  const WorkloadSpec& spec() const { return spec_; }
  Engine& engine() { return *engine_; }
  const std::string& db_dir() const { return db_dir_; }
  const std::vector<ReadShape>& shapes() const { return shapes_; }
  Reference& reference() { return *reference_; }
  /// Runs a read shape in process on `session`.
  cstore::Result<cstore::api::QueryResult> RunRead(
      cstore::api::Connection* session, const ReadShape& shape,
      cstore::plan::Strategy strategy, cstore::exec::JoinRightMode mode);
  /// A point read: one return flag and one existing ship date.
  ReadShape PointRead(Rng* rng) const;
  /// The ship date below which fraction `f` of the generated rows lie.
  Value DateAt(double f) const;
  uint64_t setup_failures() const { return setup_failures_; }

 private:
  Op NextRead(Rng* rng, std::vector<Op>* round);
  Op NextWrite(Rng* rng);
  void ClientLoop(int client, double start, double deadline, bool traced,
                  PhaseStats* st);
  void ExecuteRead(int client, const Op& op, bool traced, PhaseStats* st);
  void ExecuteWrite(int client, const Op& op, bool traced, PhaseStats* st);
  void Compact(int client, const char* table, bool traced, PhaseStats* st);
  void WarmUp();
  WriteOp RandomInsert(Rng* rng, int rows) const;
  Value RandomDate(Rng* rng) const;
  /// CPU seconds used so far on behalf of `client`: the process's CPU time
  /// minus that of the other client threads. Only reads use the pool, and
  /// one client at a time reads, so the pool worker's time counts to the
  /// reading client.
  double ClientCpu(int client) const;

  Options options_;
  WorkloadSpec spec_;
  std::string db_dir_;
  // Only these are kept of the generated data while the engine runs, so the
  // peak resident memory is the engine's; Verify() generates the rows again
  // from the seed.
  std::vector<Value> sorted_dates_;
  Value customers_ = 0;
  std::unique_ptr<Reference> reference_;
  std::unique_ptr<Engine> engine_;
  std::vector<ReadShape> shapes_;
  uint64_t setup_failures_ = 0;
  uint64_t phase_counter_ = 0;
  uint64_t ingest_writes_ = 0;  // position in ingest's cycle of write kinds

  // Write visibility window: a read may see any write count in
  // [acked before it was sent, started by the time it returned].
  std::atomic<uint32_t> writes_started_{0};
  std::atomic<uint32_t> writes_acked_{0};
  std::atomic<uint64_t> compactions_started_{0};
  std::atomic<uint64_t> compactions_finished_{0};
  // Each client thread's CPU clock, set when its loop starts.
  std::vector<clockid_t> client_clocks_;

  std::mutex log_mu_;
  std::vector<ReadRecord> reads_;
  // Write log in version order: the op, whether the engine applied it, and
  // the rows it reported affected.
  struct WriteRecord {
    WriteOp op;
    bool applied = false;
    uint64_t affected = 0;
  };
  std::vector<WriteRecord> writes_;
};

/// Runs one benchmark invocation; returns the process exit code.
int RunBenchmark(const Options& options);

/// Traced runs: the per-layer probes (layers.cc). Appends to `metrics`.
/// `events` are the trace events of the traced phase. Returns the number of
/// probe calls that failed.
uint64_t LayerProbes(Workload* w, const PhaseStats& traced,
                     const std::vector<cstore::obs::TraceEvent>& events,
                     double untraced_qps, std::vector<Metric>* metrics);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
