// Mixed read/write workload: what the write path costs the analytics.
//
// A writer thread streams INSERTs (plus occasional predicate DELETEs) into
// lineitem's and orders' write stores at a target rate while waves of
// analytic queries (selections + aggregations across all four
// materialization strategies, plus orders ⋈ customer joins per inner-table
// representation — re-enabled now that joins merge write snapshots on both
// sides; they used to be excluded by the join-side snapshot guard — each
// bound to fresh write snapshots at submit) run concurrently on one shared
// sched::Scheduler pool. Per (workers × write-rate) point the bench reports
// analytic QPS and p50/p99 latency twice:
//
//   ws-tail     writer active, write store grown to ws_rows pending rows
//   compacted   writer quiesced, TupleMover merge forced, write store empty
//
// so the cost of scanning the uncompressed tail — and what compaction buys
// back — is measured directly. write-rate 0 is the pure-read baseline.
//
// Self-verification: after quiescing, every analytic template is run once
// serially (workers=1) and once on the shared pool against the *same*
// snapshot; any checksum/tuple-count divergence fails the process, so this
// binary doubles as a CI correctness smoke for snapshot reads under
// concurrent scheduling.
//
// Machine-readable output: BENCH_readwrite.json (one record per table row).
//
//   ./build/bench_readwrite --sf=0.05 --workers=4 --concurrency=8

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/connection.h"
#include "bench_common.h"
#include "sched/scheduler.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace cstore {
namespace bench {
namespace {

struct Spec {
  std::string name;
  enum class Kind { kSel, kAgg, kJoin } kind = Kind::kSel;
  plan::Strategy strategy = plan::Strategy::kLmParallel;
  exec::JoinRightMode join_mode = exec::JoinRightMode::kMaterialized;
};

std::vector<Spec> BuildSpecs() {
  std::vector<Spec> specs;
  for (plan::Strategy s : plan::kAllStrategies) {
    specs.push_back({std::string("sel/") + StrategyName(s), Spec::Kind::kSel,
                     s, {}});
    specs.push_back({std::string("agg/") + StrategyName(s), Spec::Kind::kAgg,
                     s, {}});
  }
  // Joins under the write mix: both sides snapshot-bound at submit (the
  // orders outer tail is probed, customer's merges into the hash build).
  for (exec::JoinRightMode m :
       {exec::JoinRightMode::kMaterialized,
        exec::JoinRightMode::kMultiColumn}) {
    specs.push_back({std::string("join/") + exec::JoinRightModeName(m),
                     Spec::Kind::kJoin, plan::Strategy::kLmParallel, m});
  }
  return specs;
}

/// Resolves `name` from `snapshot`'s generation so readers and snapshot
/// always agree, even across a concurrent compaction.
Result<const codec::ColumnReader*> SnapColumn(
    db::Database* db, const write::WriteSnapshot& snapshot,
    const char* name) {
  int idx = snapshot.ColumnIndexForName(name);
  if (idx < 0) return Status::NotFound(name);
  return db->GetColumn(snapshot.column_files()[idx]);
}

/// Binds one analytic template against fresh snapshots of its tables.
Result<plan::PlanTemplate> BindTemplate(db::Database* db, const Spec& spec,
                                        Value shipdate_mid,
                                        Value custkey_mid) {
  if (spec.kind == Spec::Kind::kJoin) {
    CSTORE_ASSIGN_OR_RETURN(auto orders_snap, db->SnapshotTable("orders"));
    CSTORE_ASSIGN_OR_RETURN(auto cust_snap, db->SnapshotTable("customer"));
    plan::JoinQuery join;
    CSTORE_ASSIGN_OR_RETURN(join.left_key,
                            SnapColumn(db, *orders_snap, "custkey"));
    CSTORE_ASSIGN_OR_RETURN(join.left_payload,
                            SnapColumn(db, *orders_snap, "shipdate"));
    CSTORE_ASSIGN_OR_RETURN(join.right_key,
                            SnapColumn(db, *cust_snap, "custkey"));
    CSTORE_ASSIGN_OR_RETURN(join.right_payload,
                            SnapColumn(db, *cust_snap, "nationcode"));
    join.left_pred = codec::Predicate::LessThan(custkey_mid);
    join.right_snapshot = std::move(cust_snap);
    plan::PlanConfig config;
    config.snapshot = std::move(orders_snap);
    return plan::PlanTemplate::Join(join, spec.join_mode, config);
  }

  CSTORE_ASSIGN_OR_RETURN(auto snapshot, db->SnapshotTable("lineitem"));
  CSTORE_ASSIGN_OR_RETURN(const codec::ColumnReader* shipdate,
                          SnapColumn(db, *snapshot, "shipdate"));
  CSTORE_ASSIGN_OR_RETURN(const codec::ColumnReader* quantity,
                          SnapColumn(db, *snapshot, "quantity"));
  plan::SelectionQuery sel;
  sel.columns.push_back({shipdate, codec::Predicate::LessThan(shipdate_mid)});
  sel.columns.push_back({quantity, codec::Predicate::LessThan(30)});
  plan::PlanConfig config;
  config.snapshot = std::move(snapshot);
  if (spec.kind == Spec::Kind::kAgg) {
    plan::AggQuery agg;
    agg.selection = sel;
    agg.group_index = 0;
    agg.agg_index = 1;
    agg.func = exec::AggFunc::kSum;
    return plan::PlanTemplate::Agg(agg, spec.strategy, config);
  }
  return plan::PlanTemplate::Selection(sel, spec.strategy, config);
}

/// Runs `waves` waves of `concurrency` analytics on `scheduler`, each query
/// snapshot-bound at submit. Returns (qps, latencies).
struct WaveResult {
  double qps = 0;
  std::vector<double> lat_ms;
};

WaveResult RunWaves(db::Database* db, api::Connection* conn,
                    const std::vector<Spec>& specs, Value shipdate_mid,
                    Value custkey_mid, int concurrency, int waves) {
  WaveResult out;
  Stopwatch wall;
  int total = 0;
  for (int w = 0; w < waves; ++w) {
    std::vector<api::PendingResult> pending;
    for (int i = 0; i < concurrency; ++i) {
      auto tmpl = BindTemplate(db, specs[i % specs.size()], shipdate_mid,
                               custkey_mid);
      CSTORE_CHECK(tmpl.ok()) << tmpl.status().ToString();
      pending.push_back(conn->Submit(*tmpl, /*materialize=*/false));
      ++total;
    }
    for (api::PendingResult& p : pending) {
      auto r = p.Wait();
      CSTORE_CHECK(r.ok()) << r.status().ToString();
      out.lat_ms.push_back(r->stats.wall_micros / 1000.0);
    }
  }
  out.qps = total * 1000.0 / wall.ElapsedMillis();
  return out;
}

/// Streams inserts (and occasional deletes) into lineitem *and* orders at
/// ~rows_per_sec (combined) until stopped, so the join specs see genuinely
/// write-carrying snapshots on their probed side.
void WriterLoop(db::Database* db, std::atomic<bool>* stop,
                std::atomic<uint64_t>* written, int rows_per_sec,
                Value max_shipdate, Value num_customers) {
  Random rng(7);
  const int batch = 500;
  const int order_batch = 100;
  const auto batch_interval = std::chrono::microseconds(
      1000000LL * (batch + order_batch) / std::max(1, rows_per_sec));
  auto next = std::chrono::steady_clock::now();
  while (!stop->load(std::memory_order_relaxed)) {
    std::vector<std::vector<Value>> rows;
    rows.reserve(batch);
    for (int i = 0; i < batch; ++i) {
      Value linenum = 1 + static_cast<Value>(rng.Uniform(7));
      rows.push_back({static_cast<Value>(rng.Uniform(3)),          // returnflag
                      static_cast<Value>(rng.Uniform(
                          static_cast<int>(max_shipdate))),        // shipdate
                      linenum, linenum, linenum, linenum,          // 4 copies
                      static_cast<Value>(rng.Uniform(50))});       // quantity
    }
    Status st = db->Insert("lineitem", rows);
    CSTORE_CHECK(st.ok()) << st.ToString();
    rows.clear();
    for (int i = 0; i < order_batch; ++i) {
      rows.push_back({1 + static_cast<Value>(
                              rng.Uniform(static_cast<int>(num_customers))),
                      static_cast<Value>(rng.Uniform(
                          static_cast<int>(max_shipdate)))});
    }
    st = db->Insert("orders", rows);
    CSTORE_CHECK(st.ok()) << st.ToString();
    written->fetch_add(batch + order_batch, std::memory_order_relaxed);
    if (rng.Uniform(16) == 0) {
      // Selective delete: linenum = 7 AND quantity = k (~1/350 of rows).
      auto d = db->DeleteWhere(
          "lineitem",
          {{"linenum", codec::Predicate::Equal(7)},
           {"quantity",
            codec::Predicate::Equal(static_cast<Value>(rng.Uniform(50)))}});
      CSTORE_CHECK(d.ok()) << d.status().ToString();
      // And a sliver of orders, so the probed side sees deletes too.
      auto d2 = db->DeleteWhere(
          "orders",
          {{"shipdate",
            codec::Predicate::Equal(static_cast<Value>(
                rng.Uniform(static_cast<int>(max_shipdate))))}});
      CSTORE_CHECK(d2.ok()) << d2.status().ToString();
    }
    next += batch_interval;
    std::this_thread::sleep_until(next);
  }
}

/// Serial vs shared-pool agreement on one quiesced snapshot pair; returns
/// the number of mismatches.
int SelfVerify(db::Database* db, const std::vector<Spec>& specs,
               Value shipdate_mid, Value custkey_mid, int workers) {
  int mismatches = 0;
  sched::Scheduler::Options so;
  so.num_workers = workers;
  sched::Scheduler scheduler(so);
  api::Connection serial(db);
  api::Connection pooled(db, &scheduler);
  for (const Spec& spec : specs) {
    // Quiesced: the snapshots the template binds here are stable, so the
    // serial and pooled runs below see identical state.
    auto tmpl = BindTemplate(db, spec, shipdate_mid, custkey_mid);
    CSTORE_CHECK(tmpl.ok()) << tmpl.status().ToString();
    auto serial_r = serial.Query(*tmpl);
    CSTORE_CHECK(serial_r.ok()) << serial_r.status().ToString();
    auto pooled_r = pooled.Submit(*tmpl).Wait();
    CSTORE_CHECK(pooled_r.ok()) << pooled_r.status().ToString();
    if (pooled_r->stats.checksum != serial_r->stats.checksum ||
        pooled_r->stats.output_tuples != serial_r->stats.output_tuples) {
      std::fprintf(stderr, "MISMATCH %s: pooled vs quiesced serial\n",
                   spec.name.c_str());
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace
}  // namespace bench
}  // namespace cstore

int main(int argc, char** argv) {
  using namespace cstore;          // NOLINT
  using namespace cstore::bench;   // NOLINT

  BenchOptions opts = ParseArgs(argc, argv);
  if (opts.sf == 0.1) opts.sf = 0.05;  // default: keep the write phases quick
  if (opts.worker_sweep == std::vector<int>{1}) opts.worker_sweep = {4};
  auto db = OpenBenchDb(opts);
  auto li = tpch::LoadLineitem(db.get(), opts.sf);
  CSTORE_CHECK(li.ok()) << li.status().ToString();
  auto jc = tpch::LoadJoinTables(db.get(), opts.sf);
  CSTORE_CHECK(jc.ok()) << jc.status().ToString();
  const Value shipdate_mid =
      (li->shipdate->meta().min_value + li->shipdate->meta().max_value) / 2;
  const Value num_customers = static_cast<Value>(jc->num_customers);
  const Value custkey_mid = num_customers / 2;

  std::vector<Spec> specs = BuildSpecs();
  const int waves = std::max(2, opts.runs);
  const int write_rates[] = {0, 5000, 20000};

  std::printf(
      "# fig=readwrite analytics vs write rate (sf=%.3g, rows=%llu, "
      "concurrency=%d, waves=%d)\n",
      opts.sf, static_cast<unsigned long long>(li->num_rows),
      opts.concurrency_sweep[0], waves);
  TablePrinter table({"workers", "write_rate", "mode", "ws_rows", "qps",
                      "p50_ms", "p99_ms"});
  BenchJson json("readwrite");
  int mismatches = 0;

  for (int workers : opts.worker_sweep) {
    for (int rate : write_rates) {
      sched::Scheduler::Options so;
      so.num_workers = workers;
      sched::Scheduler scheduler(so);
      api::Connection conn(db.get(), &scheduler);

      // Phase A: write store growing under the target write rate.
      std::atomic<bool> stop{false};
      std::atomic<uint64_t> written{0};
      std::thread writer;
      if (rate > 0) {
        writer = std::thread(WriterLoop, db.get(), &stop, &written, rate,
                             li->max_shipdate, num_customers);
        // Let the write stores accumulate a real tail first.
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
      }
      WaveResult tail = RunWaves(db.get(), &conn, specs, shipdate_mid,
                                 custkey_mid, opts.concurrency_sweep[0],
                                 waves);
      uint64_t ws_rows =
          db->PendingWriteRows("lineitem") + db->PendingWriteRows("orders");
      if (rate > 0) {
        stop.store(true);
        writer.join();
      }
      table.AddRow({std::to_string(workers), std::to_string(rate), "ws-tail",
                    std::to_string(ws_rows), Fmt(tail.qps),
                    Fmt(Percentile(tail.lat_ms, 0.5)),
                    Fmt(Percentile(tail.lat_ms, 0.99))});
      json.AddRow()
          .Int("workers", workers)
          .Int("write_rate", rate)
          .Str("mode", "ws-tail")
          .Int("ws_rows", ws_rows)
          .Num("qps", tail.qps)
          .Num("p50_ms", Percentile(tail.lat_ms, 0.5))
          .Num("p99_ms", Percentile(tail.lat_ms, 0.99));

      // Phase B: quiesced + compacted — what the tuple mover buys back.
      auto moved = db->CompactTable("lineitem");
      CSTORE_CHECK(moved.ok()) << moved.status().ToString();
      moved = db->CompactTable("orders");
      CSTORE_CHECK(moved.ok()) << moved.status().ToString();
      WaveResult compacted = RunWaves(db.get(), &conn, specs,
                                      shipdate_mid, custkey_mid,
                                      opts.concurrency_sweep[0], waves);
      table.AddRow({std::to_string(workers), std::to_string(rate),
                    "compacted", "0", Fmt(compacted.qps),
                    Fmt(Percentile(compacted.lat_ms, 0.5)),
                    Fmt(Percentile(compacted.lat_ms, 0.99))});
      json.AddRow()
          .Int("workers", workers)
          .Int("write_rate", rate)
          .Str("mode", "compacted")
          .Int("ws_rows", 0)
          .Num("qps", compacted.qps)
          .Num("p50_ms", Percentile(compacted.lat_ms, 0.5))
          .Num("p99_ms", Percentile(compacted.lat_ms, 0.99));

      mismatches += SelfVerify(db.get(), specs, shipdate_mid, custkey_mid,
                               workers);
    }
  }

  table.Print();
  json.WriteAndReport();
  if (mismatches > 0) {
    std::fprintf(stderr, "%d self-verification mismatches\n", mismatches);
    return 1;
  }
  return 0;
}
